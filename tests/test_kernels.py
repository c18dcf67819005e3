"""The blade kernels must agree with the transposition-counting oracle,
under the package's (p, q) metrics and under any set of negative squares."""

import itertools
import random

from cliffsig import blade_indices, kernels
from oracles import naive_blade_product


def test_against_naive_oracle_exhaustive():
    for p, q in [(4, 0), (2, 2), (0, 4), (1, 2)]:
        n = p + q
        neg = ((1 << q) - 1) << p
        for a, b in itertools.product(range(1 << n), repeat=2):
            sign, mask = kernels.blade_mul(a, b, neg)
            want_sign, want_idx = naive_blade_product(
                blade_indices(a), blade_indices(b), p, q
            )
            assert (sign, blade_indices(mask)) == (want_sign, want_idx)


def test_blade_mul_under_every_negative_set():
    # the deformed products call blade_mul with neg ^ odd, which no
    # Signature produces: every mask and blade pair, n <= 4
    checked = 0
    for n in range(5):
        for neg, a, b in itertools.product(range(1 << n), repeat=3):
            sign, mask = kernels.blade_mul(a, b, neg)
            want_sign, want_idx = naive_blade_product(
                blade_indices(a), blade_indices(b), neg=blade_indices(neg)
            )
            assert (sign, blade_indices(mask)) == (want_sign, want_idx), (n, neg, a, b)
            checked += 1
    assert checked == sum(8**n for n in range(5))


def test_wedge_and_contract_consistency():
    neg = 0b111000  # (3,3)
    for a, b in itertools.product(range(64), repeat=2):
        ws, wm = kernels.blade_wedge(a, b)
        if a & b:
            assert ws == 0
        else:
            # no square fires: the sign is the bubble sort's merge sign
            want_sign, want_idx = naive_blade_product(blade_indices(a), blade_indices(b))
            assert (ws, blade_indices(wm)) == (want_sign, want_idx), (a, b)
        ls, lm = kernels.blade_left_contract(a, b, neg)
        if a & ~b:
            assert ls == 0
        else:
            assert (ls, lm) == kernels.blade_mul(a, b, neg)
        rs, rm = kernels.blade_right_contract(a, b, neg)
        if b & ~a:
            assert rs == 0
        else:
            assert (rs, rm) == kernels.blade_mul(a, b, neg)


def test_reorder_mask_against_its_definition():
    # bit j is set iff an odd number of a's bits lie above j
    for a in range(1 << 12):
        r = kernels.reorder_mask(a)
        for j in range(13):
            assert (r >> j & 1) == (a >> (j + 1)).bit_count() & 1, (a, j)
        assert r >> 12 == 0, a


def _row_cases():
    """(n, neg, p, q, neg indices or None, blade lists): four signatures
    with n = 6, then every negative set with n <= 4, each over every blade
    in order and over a shuffled proper subset, where no position holds
    its own mask."""
    cases = [
        (p + q, ((1 << q) - 1) << p, p, q, None)
        for p, q in [(6, 0), (3, 3), (0, 6), (2, 3)]
    ] + [
        (n, neg, 0, 0, blade_indices(neg))
        for n in range(5)
        for neg in range(1 << n)
    ]
    for n, neg, p, q, neg_indices in cases:
        every = list(range(1 << n))
        subset, rng = every[1:], random.Random(n)
        while any(b == j for j, b in enumerate(subset)):
            rng.shuffle(subset)
        yield n, neg, p, q, neg_indices, (every, subset)


def test_row_kernel_against_pairs_and_naive_oracle():
    # every bit of each row equals blade_mul pair by pair and the
    # transposition count: every pair for four signatures with n <= 6, and
    # every negative set with n <= 4, over every blade in order and over a
    # shuffled proper subset, where no position holds its own mask
    rows = 0
    for n, neg, p, q, neg_indices, views in _row_cases():
        for bs in views:
            cols = kernels.columns(bs)
            assert cols[0] == bs
            for a in range(1 << n):
                row = kernels.blade_mul_row(a, cols, neg)
                assert row >> len(bs) == 0, (n, neg, a)
                for j, b in enumerate(bs):
                    sign, mask = kernels.blade_mul(a, b, neg)
                    assert (-1 if row >> j & 1 else 1, a ^ b) == (sign, mask), (n, neg, a, b)
                    assert kernels.row_sign((row, 0), j) == sign
                    want = naive_blade_product(blade_indices(a), blade_indices(b), p, q, neg_indices)
                    assert (sign, blade_indices(a ^ b)) == want, (n, neg, a, b)
                rows += 1
    assert rows == 2 * (3 * 64 + 32 + sum(4**n for n in range(5)))
    empty = kernels.columns([])
    assert empty == ([], [])
    assert kernels.blade_mul_row(0b101, empty, 0) == 0


def test_row_forms_against_pairs_and_naive_oracle():
    # every bit of blade_mul_col (a on the right), wedge_rows and
    # contraction_rows equals its pair kernel and the transposition count,
    # on the cases of the row kernel, and on a view of the blades without
    # the last generator, which some a holds beyond the view
    def naive(x, y, vanish, p, q, neg_indices):
        if vanish:
            return 0
        sign, idx = naive_blade_product(blade_indices(x), blade_indices(y), p, q, neg_indices)
        assert idx == blade_indices(x ^ y)
        return sign

    def signs(row, width):
        assert row[0] & row[1] == 0 and (row[0] | row[1]) >> width == 0
        return [kernels.row_sign(row, j) for j in range(width)]

    views = 0
    for n, neg, p, q, neg_indices, (every, subset) in _row_cases():
        for bs in (every, subset, every[: len(every) // 2][::-1]):
            cols, width = kernels.columns(bs), len(bs)
            for a in every:
                rows = [(kernels.blade_mul_col(a, cols, neg), 0), *kernels.wedge_rows(a, cols)]
                rows += kernels.contraction_rows(a, cols, neg)
                got = [signs(row, width) for row in rows]
                for j, x in enumerate(bs):
                    pairs = [
                        kernels.blade_mul(x, a, neg),
                        kernels.blade_wedge(a, x),
                        kernels.blade_wedge(x, a),
                        kernels.blade_left_contract(a, x, neg),
                        kernels.blade_right_contract(x, a, neg),
                    ]
                    assert all(not s or m == a ^ x for s, m in pairs), (n, neg, a, x)
                    assert [g[j] for g in got] == [s for s, _ in pairs], (n, neg, a, x)
                    assert [s for s, _ in pairs] == [
                        naive(x, a, False, p, q, neg_indices),
                        naive(a, x, a & x, 0, 0, ()),
                        naive(x, a, a & x, 0, 0, ()),
                        naive(a, x, a & ~x, p, q, neg_indices),
                        naive(x, a, a & ~x, p, q, neg_indices),
                    ], (n, neg, a, x)
            views += 1
    assert views == 3 * (4 + sum(2**n for n in range(5)))
    beyond = kernels.columns([0, 0b1, 0b10, 0b11])
    assert kernels.contraction_rows(0b100, beyond, 0) == ((0, 0b1111), (0, 0b1111))
    assert kernels.contraction_rows(0, beyond, 0) == ((0, 0), (0, 0))
    assert kernels.wedge_rows(0b100, beyond) == ((0b0110, 0), (0, 0))


def test_column_planes_hold_each_generator():
    # bit j of plane i is set exactly when bs[j] holds e_{i+1}, up to the
    # highest generator in the list
    bs = [0b10110, 0b1, 0, 0b100, 0b11111]
    _, planes = kernels.columns(iter(bs))
    assert len(planes) == 5
    for i, plane in enumerate(planes):
        assert plane == sum(1 << j for j, b in enumerate(bs) if b >> i & 1), i
