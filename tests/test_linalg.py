"""The one exact elimination, ``linalg.nullspace``, on sparse rows."""

import random
from fractions import Fraction

from cliffsig import linalg


def test_no_rows_gives_the_standard_basis():
    assert linalg.nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.nullspace([], 0) == []


def test_all_zero_rows_constrain_nothing():
    assert linalg.nullspace([{}, {}], 2) == [[1, 0], [0, 1]]


def test_full_rank_has_trivial_nullspace():
    rows = [{0: 2, 1: 1}, {0: 1, 2: Fraction(1, 3)}, {1: -1, 2: 5}]
    assert linalg.nullspace(rows, 3) == []


def test_reduced_echelon_basis():
    # x0 + x1 + x2 = 0 and 2 x1 = x2 (the third row is dependent), x3
    # free: one vector per free column, 1 there, minus the fully reduced
    # pivot rows' entries at the pivots
    rows = [{0: 2, 1: 2, 2: 2}, {1: 2, 2: -1}, {0: 1, 1: 3}]
    assert linalg.nullspace(rows, 4) == [
        [Fraction(-3, 2), Fraction(1, 2), 1, 0],
        [0, 0, 0, 1],
    ]


def test_random_rows_of_known_rank():
    # rows spanning the space of k echelon generators (distinct leading
    # columns, so rank k), mixed with random combinations of them: the
    # basis has dim - k vectors, all in the kernel, with the identity on
    # the free columns; it is the unique reduced-echelon basis, so the
    # order of the rows does not matter
    rng = random.Random(5)
    for _ in range(200):
        dim = rng.randint(1, 6)
        leads = sorted(rng.sample(range(dim), rng.randint(0, dim)))
        gens = [
            {lead: rng.choice([-2, -1, 1, 3])}
            | {c: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for c in range(lead + 1, dim)}
            for lead in leads
        ]
        rows = [{c: v for c, v in g.items() if v} for g in gens]
        for _ in range(rng.randint(0, 4)):
            combo: dict[int, Fraction] = {}
            for g in gens:
                f = rng.randint(-2, 2)
                for c, v in g.items():
                    combo[c] = combo.get(c, 0) + f * v
            rows.append({c: v for c, v in combo.items() if v})
        rng.shuffle(rows)
        basis = linalg.nullspace(rows, dim)
        free = [c for c in range(dim) if c not in leads]
        assert [[v[f] for f in free] for v in basis] == [
            [int(f == g) for g in free] for f in free
        ]
        for v in basis:
            for row in rows:
                assert sum(x * v[c] for c, x in row.items()) == 0
        assert linalg.nullspace(rows[::-1], dim) == basis
