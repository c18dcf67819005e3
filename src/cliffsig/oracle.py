"""Structural fingerprints of finite-dimensional associative algebras.

The fingerprint of an algebra is (dimension, center dimension, signature
of the trace form B(x,y) = tr(L_x L_y), signature of B restricted to the
center).  It is an isomorphism invariant, and the test suite asserts by
enumeration that it separates every class produced by ``classify`` up to
real dimension 256 — which is what lets a fingerprint equality stand in
for an isomorphism when cross-checking the closed-form tables.

Structure constants come from ``regular_representation``, which reads
them over a list of blade masks straight off a product's blade sign
function (the function ``core.bilinear`` extends to multivectors), or
from ``StructureConstants.matrix_units``, which realizes M(m, K)
explicitly so ``expected_invariants`` can fingerprint a reference copy of
any class.

Coefficient domain: a structure constant is an ``int`` when it is
integral and a ``Fraction`` otherwise, never a ``float``.  Blade bases
under the package's products and the matrix-unit references have ±1
constants, so the checks below run on Python ints; the same code accepts
a table of ``Fraction`` constants, and the only divisions (in the center
nullspace) are exact.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .classify import AlgebraClass
from .core import Rational

#: dim**3 at or below which associativity is checked exhaustively.
_EXHAUSTIVE_TRIPLES = 4096


class NotClosed(ValueError):
    """A product left the span of the proposed basis."""


class NotIndependent(ValueError):
    """The proposed basis is linearly dependent."""


class NotAssociative(ValueError):
    """The structure constants fail an associativity check; ``triple`` is
    the first failing basis triple (i, j, k)."""

    def __init__(self, triple: tuple[int, int, int]):
        i, j, k = triple
        super().__init__(f"(b{i} b{j}) b{k} != b{i} (b{j} b{k})")
        self.triple = triple


@dataclass(frozen=True)
class StructuralInvariants:
    """Isomorphism fingerprint.  For the semisimple algebras this package
    produces, the trace form is nondegenerate: pos + neg = dim."""

    dim: int
    center_dim: int
    trace_sig: tuple[int, int]
    center_trace_sig: tuple[int, int]


_K_UNITS = {"R": ("1",), "C": ("1", "i"), "H": ("1", "i", "j", "k")}

_H_MUL = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}

_K_MUL = {
    "R": {("1", "1"): (1, "1")},
    "C": {("1", "1"): (1, "1"), ("1", "i"): (1, "i"),
          ("i", "1"): (1, "i"), ("i", "i"): (-1, "1")},
    "H": _H_MUL,
}


class StructureConstants:
    """Sparse structure constants: b_i b_j = sum_k table[i][j][k] b_k.

    Each constant is an ``int`` when integral and a ``Fraction`` otherwise,
    never a ``float``.
    """

    __slots__ = ("table", "dim")

    def __init__(self, table: list[list[dict[int, Rational]]]):
        self.table = table
        self.dim = len(table)

    def direct_sum(self, other: "StructureConstants") -> "StructureConstants":
        off = self.dim
        table = [
            [dict(cell) for cell in row] + [{} for _ in range(other.dim)]
            for row in self.table
        ]
        for row in other.table:
            new_row = [{} for _ in range(off)]
            new_row.extend({k + off: v for k, v in cell.items()} for cell in row)
            table.append(new_row)
        return StructureConstants(table)

    @classmethod
    def matrix_units(cls, m: int, K: str) -> "StructureConstants":
        """Reference realization of M(m, K) over the real basis
        {E_ab * u : u a unit of K}."""
        units = _K_UNITS[K]
        mul = _K_MUL[K]
        nu = len(units)

        def idx(a: int, b: int, ui: int) -> int:
            return (a * m + b) * nu + ui

        dim = m * m * nu
        table = [[{} for _ in range(dim)] for _ in range(dim)]
        for a, b, ui in itertools.product(range(m), range(m), range(nu)):
            left = idx(a, b, ui)
            for c, d, vi in itertools.product(range(m), range(m), range(nu)):
                if b != c:
                    continue
                sign, w = mul[(units[ui], units[vi])]
                table[left][idx(c, d, vi)] = {
                    idx(a, d, units.index(w)): sign
                }
        return cls(table)


def regular_representation(masks, blade_op) -> StructureConstants:
    """Structure constants of the blade basis ``masks`` under the product
    whose blade sign function is ``blade_op``.

    Cell (i, j) is {index of mask: sign} for ``sign, mask =
    blade_op(masks[i], masks[j])``, and empty when the sign is 0, exactly
    as ``core.bilinear`` extends the same function.  An empty or repeated
    mask list raises NotIndependent; a product landing on a blade outside
    the list raises NotClosed.
    """
    masks = list(masks)
    if not masks:
        raise NotIndependent("empty basis")
    index = {mask: i for i, mask in enumerate(masks)}
    if len(index) < len(masks):
        raise NotIndependent("a blade appears twice in the basis")
    table = []
    for i, a in enumerate(masks):
        row = []
        for j, b in enumerate(masks):
            sign, mask = blade_op(a, b)
            if not sign:
                row.append({})
                continue
            k = index.get(mask)
            if k is None:
                raise NotClosed(
                    f"product of basis elements {i} and {j} leaves the span"
                )
            row.append({k: sign})
        table.append(row)
    return StructureConstants(table)


def associativity_is_exhaustive(dim: int) -> bool:
    """Whether the associativity check visits every triple of a basis of
    this size (rather than a seeded sample)."""
    return dim**3 <= _EXHAUSTIVE_TRIPLES


def first_nonassociative_triple(
    sc: StructureConstants, seed: int, trials: int
) -> tuple[int, int, int] | None:
    """First basis triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k),
    or None.  Every triple is visited while dim**3 <= _EXHAUSTIVE_TRIPLES,
    ``trials`` seeded random ones beyond."""
    dim = sc.dim
    table = sc.table
    if associativity_is_exhaustive(dim):
        triples = itertools.product(range(dim), repeat=3)
    else:
        rng = random.Random(seed)
        triples = (
            (rng.randrange(dim), rng.randrange(dim), rng.randrange(dim))
            for _ in range(trials)
        )
    for i, j, k in triples:
        # (b_i b_j) b_k - b_i (b_j b_k), accumulated coordinate-wise
        diff: dict[int, Rational] = {}
        for mid, v in table[i][j].items():
            for out, w in table[mid][k].items():
                diff[out] = diff.get(out, 0) + v * w
        for mid, v in table[j][k].items():
            for out, w in table[i][mid].items():
                diff[out] = diff.get(out, 0) - v * w
        if any(diff.values()):
            return i, j, k
    return None


def _center_basis(sc: StructureConstants) -> list[list[Rational]]:
    """Nullspace of x -> ([x, b_j])_j over the basis coordinates."""
    dim = sc.dim
    rows: dict[tuple[int, int], dict[int, Rational]] = {}

    def add(key, col, val):
        row = rows.setdefault(key, {})
        row[col] = row.get(col, 0) + val

    for i in range(dim):
        for j in range(dim):
            for k, v in sc.table[i][j].items():
                add((j, k), i, v)
                add((i, k), j, -v)
    seen = set()
    sparse_rows = []
    for row in rows.values():
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        lead = min(row)
        scale = row[lead]
        key = tuple(sorted((c, Fraction(v, scale)) for c, v in row.items()))
        if key not in seen:
            seen.add(key)
            sparse_rows.append(row)
    return linalg.nullspace(sparse_rows, dim)


def _trace_form(sc: StructureConstants) -> linalg.Matrix:
    """B[i][j] = tr(L_i L_j) = sum over a, m of c_{im}^a c_{ja}^m.

    The sum runs over nonzero constants only: index (m, a) -> [(i, c_{im}^a)]
    once, then join every c_{ja}^m against it.  This is the definition
    itself, not tr(L_{b_i b_j}), which would lean on associativity.
    """
    dim = sc.dim
    table = sc.table
    by_entry: dict[tuple[int, int], list[tuple[int, Rational]]] = {}
    for i, row in enumerate(table):
        for m, cell in enumerate(row):
            for a, c in cell.items():
                by_entry.setdefault((m, a), []).append((i, c))
    b = [[0] * dim for _ in range(dim)]
    for j, row in enumerate(table):
        for a, cell in enumerate(row):
            for m, v in cell.items():
                for i, w in by_entry.get((m, a), ()):
                    b[i][j] += w * v
    return b


def structural_invariants(
    sc: StructureConstants, *, seed: int = 0, associativity_trials: int = 200
) -> StructuralInvariants:
    """Fingerprint of an associative unital algebra given by structure
    constants.  Associativity is spot-checked (exhaustively for small
    dimensions) and NotAssociative raised on a violation."""
    bad = first_nonassociative_triple(sc, seed, associativity_trials)
    if bad is not None:
        raise NotAssociative(bad)
    center = _center_basis(sc)
    b = _trace_form(sc)
    pos, neg, _zero = linalg.symmetric_signature(b)
    if center:
        gram = [
            [_bilinear_form(b, u, v) for v in center]
            for u in center
        ]
        cpos, cneg, _ = linalg.symmetric_signature(gram)
    else:
        cpos = cneg = 0
    return StructuralInvariants(
        dim=sc.dim,
        center_dim=len(center),
        trace_sig=(pos, neg),
        center_trace_sig=(cpos, cneg),
    )


def _bilinear_form(b: linalg.Matrix, u: list[Rational], v: list[Rational]) -> Rational:
    total = 0
    for i, ui in enumerate(u):
        if ui:
            row = b[i]
            for j, vj in enumerate(v):
                if vj and row[j]:
                    total += ui * row[j] * vj
    return total


@functools.lru_cache(maxsize=None)
def expected_invariants(cls: AlgebraClass) -> StructuralInvariants:
    """Fingerprint of a reference realization of the class: matrix-unit
    constants for each component, direct-summed.  Any algebra isomorphic
    to ``cls`` has this fingerprint."""
    blocks = [StructureConstants.matrix_units(c.m, c.K) for c in cls.components]
    return structural_invariants(functools.reduce(StructureConstants.direct_sum, blocks))

