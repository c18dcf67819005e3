"""Structural fingerprints of the package's algebras on a blade basis.

The fingerprint of an algebra is (dimension, center dimension, signature
of the trace form B(x,y) = tr(L_x L_y), signature of B restricted to the
center).  It is an isomorphism invariant, and the test suite asserts by
enumeration that it separates every class ``classify`` produces up to
the cap p+q <= ``core.MAX_DIMENSION`` — which is what lets a fingerprint
equality stand in for an isomorphism when cross-checking the closed-form
tables.

Every product the package fingerprints sends two blades to plus or minus
their symmetric difference, or to 0: e_a e_b = σ(a,b) e_{a^b}, a twisted
group algebra of (Z2)^n (Albuquerque and Majid, J. Pure Appl. Algebra 171
(2002)).  ``regular_representation`` checks that form and stores one sign
and one result index per cell; the fingerprint then follows from the
signs alone, in Python ints with no division:

* associativity is the cocycle identity σ(i,j) σ(i^j,k) = σ(j,k) σ(i,j^k);
* the center is spanned by the basis blades whose signs commute with
  every basis blade, since [x, e_b] sends distinct blades to distinct
  blades (this needs no associativity);
* B is diagonal, since L_a L_b e_c lies on e_{a^b^c}, with
  B(e_a, e_a) = sum over c of σ(a,c) σ(a,a^c).

``expected_invariants`` gives the fingerprint of a class in closed form.
``oracle`` runs the one associativity pass (``check_associativity``),
fingerprints with ``structural_invariants``, which checks nothing, and
compares the two; it alone turns a violation into a verdict.
The test suite keeps the dense construction (dict tables, a center
nullspace, congruence diagonalization, matrix-unit references) as the
reference these shortcuts are compared with.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .classify import AlgebraClass
from .core import blade_indices

#: dim**3 at or below which associativity is checked exhaustively.
_EXHAUSTIVE_TRIPLES = 4096


class NotClosed(ValueError):
    """A product left the span of the proposed basis."""


class NotIndependent(ValueError):
    """The proposed basis is linearly dependent."""


class NotTwisted(ValueError):
    """A product of two blades is not plus or minus their symmetric difference."""


@dataclass(frozen=True)
class StructuralInvariants:
    """Isomorphism fingerprint.  For the semisimple algebras this package
    produces, the trace form is nondegenerate: pos + neg = dim."""

    dim: int
    center_dim: int
    trace_sig: tuple[int, int]
    center_trace_sig: tuple[int, int]


class StructureConstants:
    """Blade-basis structure constants: b_i b_j = sign[i][j] b_{prod[i][j]}.

    A sign is -1, 0 or 1; where it is 0 the product is 0 and prod is -1.
    """

    __slots__ = ("sign", "prod", "dim")

    def __init__(self, sign: list[list[int]], prod: list[list[int]]):
        self.sign = sign
        self.prod = prod
        self.dim = len(sign)


def regular_representation(masks, blade_op) -> StructureConstants:
    """Structure constants of the blade basis ``masks`` under the product
    whose blade sign function is ``blade_op``.

    Cell (i, j) is read from ``sign, mask = blade_op(masks[i], masks[j])``;
    a sign of 0 is no term, exactly as ``core.bilinear`` extends the same
    function.  An empty or repeated mask list raises NotIndependent, a
    nonzero product landing on a blade outside the list raises NotClosed,
    and one that is not plus or minus the symmetric difference of its
    factors raises NotTwisted.
    """
    masks = list(masks)
    if not masks:
        raise NotIndependent("empty basis")
    index = {mask: i for i, mask in enumerate(masks)}
    if len(index) < len(masks):
        raise NotIndependent("a blade appears twice in the basis")
    sign, prod = [], []
    for i, a in enumerate(masks):
        sign_row, prod_row = [], []
        for j, b in enumerate(masks):
            s, mask = blade_op(a, b)
            k = -1
            if s:
                k = index.get(mask, -1)
                if k < 0:
                    raise NotClosed(
                        f"product of basis elements {i} and {j} leaves the span"
                    )
                if mask != a ^ b:
                    raise NotTwisted(
                        f"product of basis elements {i} and {j} is not "
                        f"plus or minus the blade {a ^ b:#b}"
                    )
            sign_row.append(s)
            prod_row.append(k)
        sign.append(sign_row)
        prod.append(prod_row)
    return StructureConstants(sign, prod)


def associativity_is_exhaustive(dim: int) -> bool:
    """Whether the associativity check visits every triple of a basis of
    this size (rather than a seeded sample)."""
    return dim**3 <= _EXHAUSTIVE_TRIPLES


def triples(dim: int, rng: random.Random | int, trials: int):
    """Index triples of a basis of size ``dim``: every one while
    dim**3 <= _EXHAUSTIVE_TRIPLES, else ``trials`` drawn from ``rng``, a
    ``random.Random`` or a seed for one (seeded only when sampling)."""
    if associativity_is_exhaustive(dim):
        return itertools.product(range(dim), repeat=3)
    if isinstance(rng, int):
        rng = random.Random(rng)
    return (
        (rng.randrange(dim), rng.randrange(dim), rng.randrange(dim))
        for _ in range(trials)
    )


def first_nonassociative_triple(
    sc: StructureConstants, seed: int, trials: int
) -> tuple[int, int, int] | None:
    """First basis triple (i, j, k) of ``triples(sc.dim, seed, trials)``
    with (b_i b_j) b_k != b_i (b_j b_k), or None.  Both sides lie on the
    same blade, so they are compared by their signs (the cocycle
    identity)."""
    sign, prod = sc.sign, sc.prod
    for i, j, k in triples(sc.dim, seed, trials):
        s, t = sign[i][j], sign[j][k]
        left = s and s * sign[prod[i][j]][k]
        right = t and t * sign[i][prod[j][k]]
        if left != right:
            return i, j, k
    return None


def _signature(values) -> tuple[int, int]:
    return sum(v > 0 for v in values), sum(v < 0 for v in values)


def structural_invariants(sc: StructureConstants) -> StructuralInvariants:
    """Fingerprint of the algebra given by structure constants.  It does
    not check associativity; ``oracle`` does that first."""
    sign, prod = sc.sign, sc.prod
    trace = [
        sum(s * row[k] for s, k in zip(row, prod_row) if s)
        for row, prod_row in zip(sign, prod)
    ]
    central = [
        b for b, (row, col) in enumerate(zip(sign, zip(*sign))) if tuple(row) == col
    ]
    return StructuralInvariants(
        dim=sc.dim,
        center_dim=len(central),
        trace_sig=_signature(trace),
        center_trace_sig=_signature([trace[b] for b in central]),
    )


#: M(m, K) as a real algebra: dim, center_dim, trace_sig, center_trace_sig.
_SIMPLE_INVARIANTS = {
    "R": lambda m: (m * m, 1, m * (m + 1) // 2, m * (m - 1) // 2, 1, 0),
    "C": lambda m: (2 * m * m, 2, m * m, m * m, 1, 1),
    "H": lambda m: (4 * m * m, 1, 2 * m * m - m, 2 * m * m + m, 1, 0),
}


def expected_invariants(cls: AlgebraClass) -> StructuralInvariants:
    """Fingerprint of ``cls`` in closed form: each simple component
    contributes its own, and a direct sum adds them up.  Any algebra
    isomorphic to ``cls`` has this fingerprint."""
    blocks = [_SIMPLE_INVARIANTS[c.K](c.m) for c in cls.components]
    dim, center_dim, pos, neg, cpos, cneg = map(sum, zip(*blocks))
    return StructuralInvariants(dim, center_dim, (pos, neg), (cpos, cneg))


def format_blades(masks) -> str:
    """A blade witness as text, e.g. ``(1, e1, e1^e2)``."""
    names = ("^".join(f"e{i}" for i in blade_indices(m)) or "1" for m in masks)
    return f"({', '.join(names)})"


@dataclass(frozen=True)
class Verdict:
    """``oracle``'s result: whether the associativity pass held and its
    report, and ``problem``, the first failure ("" when there is none)."""

    associative: bool
    associativity: str
    problem: str

    @property
    def ok(self) -> bool:
        return not self.problem


def check_associativity(
    masks, sc: StructureConstants, seed: int, trials: int
) -> tuple[bool, str]:
    """The associativity pass over the blade basis ``masks`` with structure
    constants ``sc`` (every triple while dim**3 <= 4096, ``trials`` seeded
    ones beyond) and its report: ``exhaustive triples`` or ``N sampled
    triples``, then ``0 violations`` or the first failing triple as blades."""
    how = "exhaustive" if associativity_is_exhaustive(sc.dim) else f"{trials} sampled"
    bad = first_nonassociative_triple(sc, seed, trials)
    if bad is None:
        return True, f"{how} triples, 0 violations"
    witness = format_blades(masks[i] for i in bad)
    return False, f"{how} triples, first violation {witness}"


def oracle(masks, blade_op, cls: AlgebraClass, *, seed=0, trials=200) -> Verdict:
    """Fingerprint of the blade basis ``masks`` under ``blade_op`` against
    the reference of ``cls``, after one associativity pass.  A violation is
    a failing verdict, not an exception: it names the first non-associative
    blade triple, the NotClosed, NotIndependent or NotTwisted message, or
    the oracle-vs-reference mismatch."""
    try:
        sc = regular_representation(masks, blade_op)
    except (NotClosed, NotIndependent, NotTwisted) as exc:
        return Verdict(False, str(exc), str(exc))
    associative, report = check_associativity(masks, sc, seed, trials)
    if not associative:
        return Verdict(False, report, f"not associative: {report}")
    got, want = structural_invariants(sc), expected_invariants(cls)
    problem = "" if got == want else f"oracle {got} != reference {want}"
    return Verdict(True, report, problem)
