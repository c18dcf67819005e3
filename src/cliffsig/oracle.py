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
blades once, row by row, and its ``Certificate`` carries the verdict of
every associativity check in the package, at every size, as the
``associativity`` check of ``CheckResult``, the package's one check
record.  The product is given as a row sign function
``row_op(a, cols)``, which returns the row of a over the column view
``cols`` of a blade list (``kernels.columns``) as two bitmasks over its
positions, ``(neg, zero)``: the products of sign -1 and those that
vanish, each nonzero one on the symmetric difference of its factors.
So a pass makes k + dim calls (k generator rows of B, then one per basis
row), and each row of dim signs is compared as one integer.  Before it
compares them it builds two tables over the span, aᵀB and aᵀ(B+Bᵀ) for
every coordinate bitmask a, one XOR per entry, and the table of expected
rows: for every coordinate bitmask v, the positions whose coordinates
have odd overlap with v, doubled over coordinate planes read from the
coordinates alone.  Row a is clean exactly when its ``neg`` is the
expected row of aᵀB and no product vanishes.  A clean pass keeps B's
tables, and every fingerprint is then read off them, in Python ints with
no division and no product:

* the certificate: every pair's sign equals (-1)^(aᵀBb), which proves
  associativity exactly, at every size;
* the trace form is diagonal, since L_a L_b e_c lies on e_{a^b^c}, with
  B(e_a, e_a) = dim·σ(a,a), negative when aᵀB·a is odd;
* e_a commutes with e_b when aᵀ(B+Bᵀ)b is even, and [x, e_b] sends
  distinct blades to distinct blades, so the center is spanned by the
  blades a with aᵀ(B+Bᵀ) orthogonal to the coordinates of every blade.

The same read fingerprints every subgroup of the certified blades
(``Certificate.invariants(masks)``): coordinates are additive, so σ on a
subgroup is the same bicharacter, every pair of it was compared in the
group's pass, and a is central in the subalgebra when aᵀ(B+Bᵀ) is
orthogonal to a GF(2) basis of the subgroup's coordinates.  The whole
algebra is the case where that basis spans every coordinate, so its
central blades are those with aᵀ(B+Bᵀ) = 0.  Every even subalgebra of a
grading of Cl(p,q) is such a subgroup of its blades.

The same tables decide the involution laws
(``Certificate.involution_witnesses``).  A map sending each blade to ±
itself is an automorphism exactly when its signs form a character of the
blade group, and an anti-automorphism exactly when, as a GF(2) quadratic
form, they refine the commutation bicharacter σ(a,b)σ(b,a) =
(-1)^(aᵀ(B+Bᵀ)b).

``expected_invariants`` gives the fingerprint of a class in closed form.
``oracle`` reads the certificate's fingerprint and compares the two; it
returns the certificate's verdict unchanged beside the first problem.
The row sign functions are the row forms of the bit-reorder kernels of
``kernels`` (``blade_mul_row``), which the test suite checks bit by bit
against ``blade_mul`` and bubble-sort transposition counting; none is
computed from B or from the expected rows, so the certificate is a check
of those kernels.  The test suite keeps the sign-table route and the
dense construction (dict tables, a center nullspace, congruence
diagonalization, matrix-unit references) as the references these
shortcuts are compared with.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .classify import AlgebraClass
from .core import blade_indices
from .kernels import columns, row_sign

#: dim**3 at or below which a failed certificate is followed by a search
#: of every triple for an associativity witness.
_EXHAUSTIVE_TRIPLES = 4096


class NotClosed(ValueError):
    """A product left the span of the proposed basis."""


class NotIndependent(ValueError):
    """The proposed basis is linearly dependent."""


class StructuralInvariants(NamedTuple):
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


class CheckResult(NamedTuple):
    """The package's one check record: a check's ``name``, whether it
    passed, and its report.  ``certify``'s verdict is the
    ``associativity`` check, and every ``verify`` cell returns one."""

    name: str
    ok: bool
    detail: str

    @classmethod
    def counted(cls, name: str, head: str, count: int, first: tuple | None) -> CheckResult:
        """A check whose detail is ``head``, its ``count`` witnesses and,
        when there are any, the first of them, ``first``, as blades; it
        passes when there is none.  A caller counts its witnesses and keeps
        the first, so no list of them is built."""
        named = f"; first {format_blades(first)}" if count else ""
        return cls(name, not count, f"{head}, {count} violations{named}")


def _coordinates(masks) -> tuple[list[int], dict[int, int]]:
    """The one judge of a blade list: a GF(2) basis of the span of
    ``masks``, chosen greedily among them, and each mask's coordinates
    over it as a bitmask, in the order of ``masks``.  An empty or repeated
    mask list raises NotIndependent, and one that is not closed under the
    symmetric difference, which every product here puts its nonzero
    products on, raises NotClosed at its first pair in row-major order
    whose symmetric difference is not in the list."""
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
    if len(span) > len(masks):
        for (i, a), (j, b) in itertools.product(enumerate(masks), repeat=2):
            if a ^ b not in coords:
                raise NotClosed(f"product of basis elements {i} and {j} leaves the span")
    return generators, coords


def span(vectors) -> list[int]:
    """Every GF(2) combination of the bitmasks ``vectors``, indexed by its
    coordinate bitmask: entry a is the XOR of the vectors at a's bits,
    one XOR per entry, doubling once per vector."""
    table = [0]
    for v in vectors:
        table += [x ^ v for x in table]
    return table


def _span_tables(rows: list[int]) -> tuple[list[int], list[int]]:
    """aᵀB and aᵀ(B+Bᵀ) for every coordinate bitmask a < 2**len(rows),
    indexed by a, with B given by its rows."""
    sym = [r ^ sum((s >> i & 1) << j for j, s in enumerate(rows)) for i, r in enumerate(rows)]
    return span(rows), span(sym)


def _first_nonassociative_triple(masks, row_op):
    """First blade triple (a, b, c) of ``masks`` with (ab)c != a(bc), read
    from one ``row_op`` row per blade on a closed, twisted basis, or None;
    None at once when dim**3 > _EXHAUSTIVE_TRIPLES."""
    if not associativity_is_exhaustive(len(masks)):
        return None
    cols = columns(masks)
    position = {m: j for j, m in enumerate(masks)}
    rows = {a: row_op(a, cols) for a in masks}

    def sign(a, b):
        return row_sign(rows[a], position[b])

    for a, b, c in itertools.product(masks, repeat=3):
        s, t = sign(a, b), sign(b, c)
        if (s and s * sign(a ^ b, c)) != (t and t * sign(a, b ^ c)):
            return a, b, c
    return None


def _overlap_rows(column: list[int], k: int) -> list[int]:
    """For every coordinate bitmask v < 2**k, the positions j whose
    coordinates ``column[j]`` have odd overlap with v, as a bitmask: the
    expected row of signs -1 of a row whose aᵀB is v.  Doubled over the k
    coordinate planes, which are read from ``column`` alone, never from
    the column view a row function reads, so no row is compared with a
    table made from its own planes."""
    planes = [0] * k
    for j, c in enumerate(column):
        bit = 1 << j
        while c:
            low = c & -c
            planes[low.bit_length() - 1] |= bit
            c ^= low
    return span(planes)


def _read_bicharacter(masks: list[int], row_op):
    """The certificate pass over every pair of the blade basis ``masks``:
    each mask's coordinates over B's GF(2) basis, B's two span tables
    (``_span_tables``), and the first pair whose sign is not (-1)^(aᵀBb),
    or None.  ``_coordinates`` judges the list first, so an empty,
    repeated or unclosed list raises before any ``row_op`` call, and the
    pass reads signs alone.  ``row_op`` is called once per generator row
    of B, whose ``neg`` is B's row, and once per basis row, which is clean
    exactly when its ``neg`` is the expected row of aᵀB (``_overlap_rows``)
    and no product vanishes; the first pair off the bicharacter is the
    lowest bit where the first unclean row differs."""
    generators, coords = _coordinates(masks)
    gen_cols = columns(generators)
    table_b, table_sym = _span_tables([row_op(g, gen_cols)[0] for g in generators])
    column = [coords[m] for m in masks]
    expected = _overlap_rows(column, len(generators))
    cols = columns(masks)
    bad = None
    for a, ca in zip(masks, column):
        neg, zero = row_op(a, cols)
        off = (neg ^ expected[table_b[ca]]) | zero
        if off and bad is None:
            bad = a, masks[(off & -off).bit_length() - 1]
    return coords, table_b, table_sym, bad


class Certificate(NamedTuple):
    """What one ``certify`` pass found: its verdict, the ``associativity``
    check; ``problem``, the failure a fingerprint check quotes, its report
    after "not associative: " or "not a bicharacter twist: " (the message
    alone for a list judged unfit), "" when the pass is clean; and, when
    it is, the coordinates of every certified blade over B's GF(2) basis
    and B's two span tables, aᵀB and aᵀ(B+Bᵀ) indexed by the coordinate
    bitmask a.  A failing pass certifies no blade."""

    verdict: CheckResult
    problem: str
    coords: dict[int, int]
    table_b: list[int]
    table_sym: list[int]

    def invariants(self, masks=None) -> StructuralInvariants:
        """The fingerprint of the algebra on the certified blades, or with
        ``masks``, of its subalgebra on those blades, a subgroup of the
        certified ones, read off B's tables with no product; it equals the
        fingerprint of a pass over ``masks``.  ``masks`` defaults to every
        certified blade, and a list of every certified blade, once each,
        spans every coordinate, whose basis is the unit bitmasks.  Any
        other list is judged by ``_coordinates``, as a pass judges it
        (NotIndependent, or NotClosed at its first unclosed pair), and a
        closed list holding a blade outside the certified ones raises
        NotClosed."""
        masks = list(self.coords if masks is None else masks)
        if masks and len(masks) == len(self.coords) and self.coords.keys() == set(masks):
            coords = self.coords.values()
            basis = [1 << i for i in range(len(self.table_b).bit_length() - 1)]
        else:
            generators, _ = _coordinates(masks)
            outside = next((m for m in masks if m not in self.coords), None)
            if outside is not None:
                raise NotClosed(f"blade {outside:#b} is not among the certified blades")
            coords = [self.coords[m] for m in masks]
            basis = [self.coords[g] for g in generators]
        table_b, table_sym = self.table_b, self.table_sym
        negative = [(table_b[c] & c).bit_count() & 1 for c in coords]
        central = []
        for neg, c in zip(negative, coords):
            for h in basis:
                if (table_sym[c] & h).bit_count() & 1:
                    break
            else:
                central.append(neg)
        dim, neg, cdim, cneg = len(negative), sum(negative), len(central), sum(central)
        return StructuralInvariants(dim, cdim, (dim - neg, neg), (cdim - cneg, cneg))

    def involution_witnesses(self, parity, reversion):
        """For two maps sending each certified blade to ± itself, given as
        ``{mask: ±1}`` over the certified blades: the first blade pair
        (a, b) with parity(a^b) != parity(a) parity(b), or None when the
        parity signs are a character, so the map is an automorphism; and
        the first with rev(a^b) rev(a) rev(b) != σ(a,b) σ(b,a), or None when
        the reversion signs, as a GF(2) quadratic form q, have the polar
        form aᵀ(B+Bᵀ)b, so the map is an anti-automorphism.

        A character is the case of polar form 0.  Either form is fixed by
        its values on B's generators, q(x⊕gᵢ) = q(x) + q(gᵢ) + [bit i of
        xᵀ(B+Bᵀ)], so each law is decided by doubling over them, in O(dim),
        and the pairs are scanned only where the signs differ from that
        form."""
        witnesses, blade = [], {c: m for m, c in self.coords.items()}
        for signs, polar in ((parity, [0] * len(self.table_sym)), (reversion, self.table_sym)):
            q = [int(signs[blade[c]] < 0) for c in range(len(polar))]
            form = [0]
            for i in range(len(q).bit_length() - 1):
                form += [f ^ q[1 << i] ^ (polar[x] >> i & 1) for x, f in enumerate(form)]
            pairs = itertools.product(self.coords.items(), repeat=2)
            witnesses.append(None if form == q else next(
                (a, b) for (a, ca), (b, cb) in pairs
                if q[ca ^ cb] != q[ca] ^ q[cb] ^ (polar[ca] & cb).bit_count() & 1
            ))
        return tuple(witnesses)


def certify(masks, row_op) -> Certificate:
    """The one pass over every pair of the blade basis ``masks`` under the
    product whose row sign function is ``row_op``: its verdict, the
    ``associativity`` check, and every blade's coordinates with B's tables
    when it is clean.

    ``row_op(a, cols)`` gives the row ``(neg, zero)`` of a over the column
    view ``cols`` (``kernels.columns``).  B is read from ``row_op`` on a
    GF(2) basis of the span chosen among ``masks``, one call per generator
    row, then one call per basis row reads every pair, and each row is
    compared with the signs (-1)^(aᵀBb) as one integer.  The verdict fails
    on an empty or repeated mask list (the NotIndependent message), a list
    not closed under the symmetric difference (NotClosed), at its first
    such pair in row-major order, before any ``row_op`` call, or a
    NotClosed that ``row_op`` raises.  On a failed comparison every
    triple is searched while dim**3 <= 4096; the verdict names the first
    non-associative triple, else the first failing pair, and ``problem``
    says which of the two it is."""
    masks = list(masks)
    try:
        coords, table_b, table_sym, bad = _read_bicharacter(masks, row_op)
    except (NotClosed, NotIndependent) as exc:
        report = problem = str(exc)
    else:
        how = f"bicharacter certificate, {len(masks) ** 2} pairs"
        if bad is None:
            verdict = CheckResult("associativity", True, f"{how}, 0 violations")
            return Certificate(verdict, "", coords, table_b, table_sym)
        triple = _first_nonassociative_triple(masks, row_op)
        if triple is not None:
            report = f"exhaustive triples, first violation {format_blades(triple)}"
            problem = f"not associative: {report}"
        else:
            report = f"{how}, first violation {format_blades(bad)}"
            problem = f"not a bicharacter twist: {report}"
    return Certificate(CheckResult("associativity", False, report), problem, {}, [], [])


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
) -> tuple[CheckResult, str]:
    """Fingerprint of the blade basis ``masks`` under the row sign function
    ``row_op`` against the reference of ``cls``, from one ``certify`` pass:
    the verdict of the certificate it read, that ``associativity`` check
    itself, and the first problem, "" when there is none.

    With a ``certificate`` of a group of blades holding ``masks``, made
    under the same ``row_op``, the fingerprint is read off its tables with
    no product.  Where ``masks`` is no subgroup of it, which holds for every
    list when that pass failed, ``masks`` gets a pass of its own, so a
    failing verdict is worded the same either way.

    The contract is stricter than associativity: the twist must be a
    bicharacter, so an associative product twisted by a coboundary that
    is not bilinear, σ(a,b) f(a) f(b) f(a^b), fails.  A violation is a
    problem, not an exception: the failing pass's ``problem``, which names
    the first non-associative blade triple (searched while dim**3 <= 4096),
    else the first pair off the bicharacter, or the NotClosed or
    NotIndependent message; or, after a clean pass, the
    oracle-vs-reference mismatch."""
    masks = list(masks)
    got = None
    if certificate is not None:
        try:
            got = certificate.invariants(masks)
        except (NotClosed, NotIndependent):
            pass  # the pass below words the failure
    if got is None:
        certificate = certify(masks, row_op)
        if not certificate.verdict.ok:
            return certificate.verdict, certificate.problem
        got = certificate.invariants()
    want = expected_invariants(cls)
    return certificate.verdict, "" if got == want else f"oracle {got} != reference {want}"
