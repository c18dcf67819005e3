"""Z2-gradings of Cl(p,q) compatible with the multivector structure.

A structure-preserving grading is determined by which 1-vectors are odd,
and (up to an isometry of V) the odd space can be spanned by part of the
standard orthonormal basis.  ``Z2Grading`` is that normal form: a subset
of the basis declared odd.  General isometric involutions of V are
handled by ``validate_involution``, which either reduces them to the same
(p0, q0, p1, q1) data or rejects them with the violated hypothesis.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from . import kernels, linalg
from .core import (
    Frozen,
    Multivector,
    Signature,
    _check_same_sig,
    _reweighted,
    all_blades,
    blade_from_indices,
    blade_indices,
    blade_order,
)
from .oracle import CheckResult, span


class NotInvolution(ValueError):
    """Candidate grading map does not square to the identity on V."""


class NotIsometry(ValueError):
    """Candidate grading map is an involution of V but not a g-isometry."""


class DichotomyViolation(ArithmeticError):
    """An even part's dimension is neither the whole algebra (trivial
    grading) nor exactly half of it (any other grading)."""


class EigenspaceViolation(ArithmeticError):
    """The +1/-1 eigenspaces of an accepted involution do not split V into
    two g-orthogonal nondegenerate subspaces, as the theory guarantees."""


class Z2Grading(Frozen):
    """Basis-aligned structure-preserving grading: ``odd_mask`` marks the
    basis vectors spanning the odd 1-vector space.  Immutable; equal and
    hashed as (sig, odd_mask)."""

    __slots__ = ("sig", "odd_mask")

    def __init__(self, sig: Signature, odd_mask: int = 0):
        sig.check_mask(odd_mask)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "odd_mask", odd_mask)

    @classmethod
    def from_odd_indices(cls, sig: Signature, indices) -> "Z2Grading":
        return cls(sig, blade_from_indices(indices, sig))

    @classmethod
    def trivial(cls, sig: Signature) -> "Z2Grading":
        return cls(sig, 0)

    @classmethod
    def usual(cls, sig: Signature) -> "Z2Grading":
        """All 1-vectors odd: the even part is the even-grade subalgebra."""
        return cls(sig, sig.full_mask)

    @property
    def even_mask(self) -> int:
        return self.sig.full_mask & ~self.odd_mask

    @property
    def odd_indices(self) -> tuple[int, ...]:
        return blade_indices(self.odd_mask)

    @property
    def is_trivial(self) -> bool:
        return self.odd_mask == 0

    @property
    def is_usual(self) -> bool:
        return self.odd_mask == self.sig.full_mask

    def counts(self) -> tuple[int, int, int, int]:
        """(p0, q0, p1, q1): signature of g on the even / odd 1-vector spaces."""
        pos = (1 << self.sig.p) - 1
        p0 = kernels.grade(self.even_mask & pos)
        q0 = kernels.grade(self.even_mask & ~pos)
        return p0, q0, self.sig.p - p0, self.sig.q - q0

    def blade_parity(self, mask: int) -> int:
        """0 or 1: parity of the number of odd generators in the blade."""
        return kernels.grade(mask & self.odd_mask) & 1

    def __str__(self) -> str:
        odd = ",".join(f"e{i}" for i in self.odd_indices) or "-"
        return f"{self.sig} odd={odd}"


def alpha(a: Multivector, gr: Z2Grading) -> Multivector:
    """Grading automorphism: -1 on odd blades, +1 on even ones."""
    _check_same_sig(a, gr)
    return _reweighted(a, lambda m: -1 if gr.blade_parity(m) else 1)


def project_even(a: Multivector, gr: Z2Grading) -> Multivector:
    """pi_0(a) = (a + alpha(a)) / 2: the even component."""
    _check_same_sig(a, gr)
    return _reweighted(a, lambda m: not gr.blade_parity(m))


def project_odd(a: Multivector, gr: Z2Grading) -> Multivector:
    """pi_1(a) = (a - alpha(a)) / 2: the odd component."""
    _check_same_sig(a, gr)
    return _reweighted(a, gr.blade_parity)


def even_subalgebra_basis(gr: Z2Grading) -> list[int]:
    """All blades with an even number of odd generators, canonically ordered.

    This is a vector-space basis of the even subalgebra: 2^n blades for
    the trivial grading, 2^(n-1) otherwise.
    """
    return [m for m in blade_order(gr.sig.n) if not gr.blade_parity(m)]


class DimensionClass(Enum):
    TRIVIAL = "trivial"
    HALF = "half"


def dimension_dichotomy_check(gr: Z2Grading) -> DimensionClass:
    """Even-part dimension dichotomy: the whole algebra for the trivial
    grading, exactly half of it for every other grading."""
    size = len(even_subalgebra_basis(gr))
    n = gr.sig.n
    if gr.is_trivial:
        cls, want = DimensionClass.TRIVIAL, 1 << n
    else:
        cls, want = DimensionClass.HALF, 1 << (n - 1)
    if size != want:
        raise DichotomyViolation(
            f"{gr}: even part has dimension {size}, expected {want} ({cls.value})"
        )
    return cls


def grading_closure_check(gr: Z2Grading) -> CheckResult:
    """Whether every product of two blades lands in the parity component
    the grading predicts.  Each product of the package sends blades a and
    b to plus or minus a ^ b or to 0 (the row protocol of ``kernels``,
    which ``oracle.certify`` holds each product it certifies to), so this
    decides, with no product, parity(a ^ b) = parity(a) + parity(b) for
    every blade pair: that the blade parities are a character of the
    blade group.  A character is fixed by its values on the generators, so
    the parities are compared with the one they fix there, built by
    doubling in O(dim), and the pairs are scanned, in row-major order,
    only when the two differ.  The ``closure`` check counts the failing
    pairs and names the first, so its memory does not grow with them."""
    blades = all_blades(gr.sig)
    parity = [gr.blade_parity(m) for m in range(1 << gr.sig.n)]
    character = span(parity[1 << k] for k in range(gr.sig.n))
    count, first = 0, None
    for a, b in [] if character == parity else itertools.product(blades, repeat=2):
        if parity[a ^ b] != parity[a] ^ parity[b]:
            count, first = count + 1, first or (a, b)
    return CheckResult.counted("closure", f"{len(blades) ** 2} blade pairs", count, first)


class InvolutionSplit(NamedTuple):
    """Outcome of validating a general involution: the signature data of
    g restricted to the +1/-1 eigenspaces, plus eigenbases (coordinate
    vectors over the standard basis)."""

    sig: Signature
    p0: int
    q0: int
    p1: int
    q1: int
    even_vectors: tuple[tuple[Fraction, ...], ...]
    odd_vectors: tuple[tuple[Fraction, ...], ...]

    def counts(self) -> tuple[int, int, int, int]:
        return self.p0, self.q0, self.p1, self.q1


def _metric_matrix(sig: Signature) -> linalg.Matrix:
    return [
        [Fraction(sig.metric(i + 1) if i == j else 0) for j in range(sig.n)]
        for i in range(sig.n)
    ]


def validate_involution(matrix, sig: Signature) -> InvolutionSplit:
    """Check that ``matrix`` defines a structure-preserving grading on V.

    Accepts exactly the maps that are involutions of V and g-isometries;
    each rejection names the violated hypothesis.  The +1/-1 eigenspaces
    are computed by exact elimination and the restricted signatures by
    exact congruence diagonalization.
    """
    m = linalg.to_fractions(matrix)
    n = sig.n
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError(f"expected a {n}x{n} matrix for {sig}")
    ident = linalg.identity(n)
    if not linalg.mat_eq(linalg.mat_mul(m, m), ident):
        raise NotInvolution("matrix squared is not the identity on V")
    g = _metric_matrix(sig)
    mt = linalg.transpose(m)
    if not linalg.mat_eq(linalg.mat_mul(mt, linalg.mat_mul(g, m)), g):
        raise NotIsometry("matrix is an involution of V but does not preserve g")

    def eigenspace(sign: int) -> list[list[Fraction]]:
        """Basis of {x : m x = sign x}, as Fraction coordinate vectors."""
        rows = [
            {j: x - sign * (i == j) for j, x in enumerate(row) if x != sign * (i == j)}
            for i, row in enumerate(m)
        ]
        return [[Fraction(x) for x in v] for v in linalg.nullspace(rows, n)]

    even_vectors = eigenspace(1)
    odd_vectors = eigenspace(-1)
    if len(even_vectors) + len(odd_vectors) != n:
        raise EigenspaceViolation(
            f"eigenspace dimensions {len(even_vectors)} + {len(odd_vectors)} != {n}"
        )

    def g_pair(u, v) -> Fraction:
        return sum(
            (u[i] * sig.metric(i + 1) * v[i] for i in range(n)), Fraction(0)
        )

    # orthogonality of the two eigenspaces is forced; check it anyway
    for u in even_vectors:
        for v in odd_vectors:
            if g_pair(u, v) != 0:
                raise EigenspaceViolation("the +1 and -1 eigenspaces are not g-orthogonal")

    def restricted(vectors) -> tuple[int, int]:
        gram = [[g_pair(u, v) for v in vectors] for u in vectors]
        pos, neg, zero = linalg.symmetric_signature(gram)
        if zero:
            raise EigenspaceViolation(f"an eigenspace is degenerate ({zero} null directions)")
        return pos, neg

    p0, q0 = restricted(even_vectors) if even_vectors else (0, 0)
    p1, q1 = restricted(odd_vectors) if odd_vectors else (0, 0)
    return InvolutionSplit(
        sig=sig,
        p0=p0,
        q0=q0,
        p1=p1,
        q1=q1,
        even_vectors=tuple(tuple(v) for v in even_vectors),
        odd_vectors=tuple(tuple(v) for v in odd_vectors),
    )
