"""Structural fingerprints of the package's algebras on a blade basis.

The fingerprint of an algebra is (dimension, center dimension, signature
of the trace form B(x,y) = tr(L_x L_y), signature of B restricted to the
center).  It is an isomorphism invariant, and the test suite asserts by
enumeration that it separates every class ``classify`` produces up to
the cap p+q <= ``core.MAX_DIMENSION`` — which is what lets a fingerprint
equality stand in for an isomorphism when cross-checking the closed-form
tables.

Every product the package fingerprints sends two blades to plus or minus
their symmetric difference, e_a e_b = σ(a,b) e_{a^b}, with a twist that
is a GF(2) bicharacter: σ(a,b) = (-1)^(aᵀBb) in coordinates over a GF(2)
basis of the blade group, for one k×k matrix B read from the products of
the basis blades.  Such a twist is a 2-cocycle, so the algebra is
associative (Albuquerque and Majid, J. Pure Appl. Algebra 171 (2002)).
``certify`` is the one pass: it reads B and visits every pair of basis
blades once, row by row, keeping one int per row, and its ``Certificate``
carries the verdict of every associativity check in the package, at
every size.  The fingerprint of a clean pass then follows from B alone,
in Python ints with no division.  The product is given as a row sign
function ``row_op(a, bs)``, the (sign, mask) of a·b for every b in the
list ``bs``, so a pass makes k + dim calls (k generator rows of B, then
one per basis row) and still reads all dim² signs:

* the certificate: every pair's sign equals (-1)^(aᵀBb), which proves
  associativity exactly, at every size;
* the center is spanned by the basis blades a with aᵀ(B+Bᵀ)g even for
  every GF(2) basis blade g, since [x, e_b] sends distinct blades to
  distinct blades;
* the trace form is diagonal, since L_a L_b e_c lies on e_{a^b^c}, with
  B(e_a, e_a) = dim·σ(a,a).

A clean pass over a group of blades also fingerprints every subgroup of
it, with no further product (``Certificate.subgroup_invariants``): c(·), the
coordinates over the group's GF(2) basis, is additive, so for blades s, t
of a subgroup with GF(2) basis h_1..h_m chosen among its blades,
c(s)ᵀB c(t) = d(s)ᵀ B_sub d(t), where d(·) gives coordinates over h and
B_sub[k][l] = c(h_k)ᵀB c(h_l).  Every pair of the subgroup was compared in
the group's pass, so B_sub holds exactly the signs a pass over the
subgroup alone would read, and the fingerprint is the same.  Every even
subalgebra of a grading of Cl(p,q) is such a subgroup of its blades.

``expected_invariants`` gives the fingerprint of a class in closed form.
``oracle`` reads the certificate's fingerprint and compares the two.
The row sign functions are the row forms of the bit-reorder kernels of
``kernels`` (``blade_mul_row``), which the test suite checks pair by pair
against ``blade_mul`` and bubble-sort transposition counting; none is
computed from B, so the certificate is a check of those kernels.  The fingerprint reads aᵀB and aᵀ(B+Bᵀ) for each
blade off tables over the whole span, one XOR per entry.  The test suite
keeps the sign-table route and the dense construction (dict tables, a
center nullspace, congruence diagonalization, matrix-unit references) as
the references these shortcuts are compared with.
"""

from __future__ import annotations

import itertools
from collections.abc import Collection, Sequence
from dataclasses import dataclass

from .classify import AlgebraClass
from .core import blade_indices

#: dim**3 at or below which a failed certificate is followed by a search
#: of every triple for an associativity witness.
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


def associativity_is_exhaustive(dim: int) -> bool:
    """Whether a basis of this size is small enough to visit every triple."""
    return dim**3 <= _EXHAUSTIVE_TRIPLES


def format_blades(masks) -> str:
    """A blade witness as text, e.g. ``(1, e1, e1^e2)``."""
    names = ("^".join(f"e{i}" for i in blade_indices(m)) or "1" for m in masks)
    return f"({', '.join(names)})"


def _coordinates(masks) -> tuple[list[int], dict[int, int], int]:
    """A GF(2) basis of the span of ``masks``, chosen greedily among them,
    each mask's coordinates over it as a bitmask, in the order of
    ``masks``, and the span's size.  An empty or repeated mask list
    raises NotIndependent."""
    if not masks:
        raise NotIndependent("empty basis")
    span = {0: 0}  # blade -> coordinates
    generators: list[int] = []
    for mask in masks:
        if mask not in span:
            bit = 1 << len(generators)
            generators.append(mask)
            span.update({x ^ mask: c | bit for x, c in span.items()})
    coords = {mask: span[mask] for mask in masks}
    if len(coords) < len(masks):
        raise NotIndependent("a blade appears twice in the basis")
    return generators, coords, len(span)


def _bicharacter_row(rows: list[int], coord: int) -> int:
    """aᵀM for the coordinates ``coord`` of a, with M given by its rows."""
    out = 0
    for i, row in enumerate(rows):
        if coord >> i & 1:
            out ^= row
    return out


def _span_rows(rows: list[int]) -> list[int]:
    """aᵀM for every coordinate bitmask a < 2**len(rows), indexed by a,
    with M given by its rows: one XOR each, doubling over the span as
    ``_coordinates`` does."""
    out = [0]
    for row in rows:
        out += [x ^ row for x in out]
    return out


def _invariants(rows: Sequence[int], coords: Collection[int]) -> StructuralInvariants:
    """The fingerprint of the twisted group algebra whose twist is the
    bicharacter with matrix rows ``rows``, on blades with coordinates
    ``coords``: B(e_a, e_a) = dim·σ(a,a), and a is central when
    aᵀ(B+Bᵀ) = 0."""
    sym = [r ^ sum((s >> i & 1) << j for j, s in enumerate(rows)) for i, r in enumerate(rows)]
    row_of, sym_of = _span_rows(rows), _span_rows(sym)
    negative = [(row_of[c] & c).bit_count() & 1 for c in coords]
    central = [neg for neg, c in zip(negative, coords) if not sym_of[c]]
    dim, neg, cdim, cneg = len(coords), sum(negative), len(central), sum(central)
    return StructuralInvariants(dim, cdim, (dim - neg, neg), (cdim - cneg, cneg))


def _first_nonassociative_triple(masks, row_op):
    """First blade triple (a, b, c) of ``masks`` with (ab)c != a(bc), read
    through ``row_op`` one-element rows on a closed, twisted basis, or
    None; None at once when dim**3 > _EXHAUSTIVE_TRIPLES."""
    if not associativity_is_exhaustive(len(masks)):
        return None

    def blade_op(a, b):
        return row_op(a, [b])[0]

    for a, b, c in itertools.product(masks, repeat=3):
        s, ab = blade_op(a, b)
        t, bc = blade_op(b, c)
        if (s and s * blade_op(ab, c)[0]) != (t and t * blade_op(a, bc)[0]):
            return a, b, c
    return None


@dataclass(frozen=True)
class Verdict:
    """``oracle``'s result: whether the certificate proved associativity
    and its report, and ``problem``, the first failure ("" when there is
    none)."""

    associative: bool
    associativity: str
    problem: str

    @property
    def ok(self) -> bool:
        return not self.problem


def _read_bicharacter(masks: list[int], row_op):
    """The certificate pass over every pair of the blade basis ``masks``:
    B's rows, each mask's coordinates over B's GF(2) basis, and the first
    pair whose sign is not (-1)^(aᵀBb), or None.  ``row_op`` is called once
    per generator row of B and once per basis row.  An empty or repeated
    mask list raises NotIndependent, a nonzero product landing on a blade
    outside the list raises NotClosed, and one that is not plus or minus
    the symmetric difference of its factors raises NotTwisted, at the
    first such pair in row-major order."""
    generators, coords, span = _coordinates(masks)
    unclosed = len(masks) < span  # else a ^ b is always a basis blade
    rows = [
        sum((s < 0) << j for j, (s, _) in enumerate(row_op(g, generators)))
        for g in generators
    ]
    bad = None
    column = list(coords.values())
    for a, ca in zip(masks, column):
        row = _bicharacter_row(rows, ca)
        for (s, mask), b, cb in zip(row_op(a, masks), masks, column, strict=True):
            if s and (mask != a ^ b or unclosed and mask not in coords):
                i, j = masks.index(a), masks.index(b)
                if mask not in coords:
                    raise NotClosed(f"product of basis elements {i} and {j} leaves the span")
                raise NotTwisted(
                    f"product of basis elements {i} and {j} is not "
                    f"plus or minus the blade {a ^ b:#b}"
                )
            if s != (-1 if (row & cb).bit_count() & 1 else 1) and bad is None:
                bad = a, b
    return rows, coords, bad


@dataclass(frozen=True)
class Certificate:
    """What one ``certify`` pass found: its verdict and, when the pass is
    clean, the rows of B and the coordinates of every certified blade over
    B's GF(2) basis.  A failing pass certifies no blade."""

    verdict: Verdict
    rows: tuple[int, ...]
    coords: dict[int, int]

    def invariants(self) -> StructuralInvariants:
        """The fingerprint of the algebra on the certified blades, read
        off B."""
        return _invariants(self.rows, self.coords.values())

    def subgroup_invariants(self, masks) -> StructuralInvariants:
        """The fingerprint of the subalgebra on the blades ``masks``, a
        subgroup of the certified ones, read off B restricted to it with
        no product; it equals the fingerprint of a pass over ``masks``.
        An empty or repeated mask list raises NotIndependent; a blade
        outside the certified ones, or a list not closed under the
        symmetric difference, raises NotClosed."""
        masks = list(masks)
        generators, sub, span = _coordinates(masks)
        outside = next((m for m in masks if m not in self.coords), None)
        if outside is not None:
            raise NotClosed(f"blade {outside:#b} is not among the certified blades")
        if span > len(masks):
            raise NotClosed("the basis is not closed under the symmetric difference")
        whole = [self.coords[h] for h in generators]
        rows = [
            sum(((row & h).bit_count() & 1) << j for j, h in enumerate(whole))
            for row in (_bicharacter_row(self.rows, g) for g in whole)
        ]
        return _invariants(rows, sub.values())


def certify(masks, row_op) -> Certificate:
    """The one pass over every pair of the blade basis ``masks`` under the
    product whose row sign function is ``row_op``: its verdict on
    associativity, and B with every blade's coordinates when it is clean.

    ``row_op(a, bs)`` gives the (sign, mask) of a·b for every b in the list
    ``bs``.  B is read from ``row_op`` on a GF(2) basis of the span chosen
    among ``masks``, one call per generator row, then one call per basis
    row reads every pair, whose sign is compared with (-1)^(aᵀBb).  The
    verdict fails on an empty or repeated mask list (the NotIndependent
    message), a nonzero product landing on a blade outside the list
    (NotClosed) or one that is not plus or minus the symmetric difference
    of its factors (NotTwisted), at the first such pair in row-major
    order.  On a failed comparison every triple is searched while
    dim**3 <= 4096; the verdict names the first non-associative triple,
    else the first failing pair."""
    masks = list(masks)
    try:
        rows, coords, bad = _read_bicharacter(masks, row_op)
    except (NotClosed, NotIndependent, NotTwisted) as exc:
        return Certificate(Verdict(False, str(exc), str(exc)), (), {})
    how = f"bicharacter certificate, {len(masks) ** 2} pairs"
    if bad is None:
        return Certificate(Verdict(True, f"{how}, 0 violations", ""), tuple(rows), coords)
    triple = _first_nonassociative_triple(masks, row_op)
    if triple is not None:
        report = f"exhaustive triples, first violation {format_blades(triple)}"
        verdict = Verdict(False, report, f"not associative: {report}")
    else:
        report = f"{how}, first violation {format_blades(bad)}"
        verdict = Verdict(False, report, f"not a bicharacter twist: {report}")
    return Certificate(verdict, (), {})


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


def oracle(
    masks, row_op, cls: AlgebraClass, *, certificate: Certificate | None = None
) -> Verdict:
    """Fingerprint of the blade basis ``masks`` under the row sign function
    ``row_op`` against the reference of ``cls``, from one ``certify`` pass.

    With a ``certificate`` of a group of blades holding ``masks``, made
    under the same ``row_op``, the fingerprint is read off its B with no
    product.  Where ``masks`` is no subgroup of it, which holds for every
    list when that pass failed, ``masks`` gets a pass of its own, so a
    failing verdict is worded the same either way.

    The contract is stricter than associativity: the twist must be a
    bicharacter, so an associative product twisted by a coboundary that
    is not bilinear, σ(a,b) f(a) f(b) f(a^b), fails.  A violation is a
    failing verdict, not an exception: it names the first non-associative
    blade triple (searched while dim**3 <= 4096), else the first pair off
    the bicharacter, the NotClosed, NotIndependent or NotTwisted message,
    or the oracle-vs-reference mismatch."""
    masks = list(masks)
    got = None
    if certificate is not None:
        try:
            got = certificate.subgroup_invariants(masks)
        except (NotClosed, NotIndependent):
            pass  # the pass below words the failure
    if got is None:
        certificate = certify(masks, row_op)
        if not certificate.verdict.ok:
            return certificate.verdict
        got = certificate.invariants()
    want = expected_invariants(cls)
    problem = "" if got == want else f"oracle {got} != reference {want}"
    return Verdict(True, certificate.verdict.associativity, problem)
