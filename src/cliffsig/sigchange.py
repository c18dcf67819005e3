"""Deformed Clifford products: arbitrary signature change on the shared
multivector carrier.

Given a structure-preserving grading with automorphism alpha, the product
generated by v ∨ a = v^a + alpha(v)⌟a turns the same 2^n-dimensional
carrier into the Clifford algebra of the deformed metric
g_a(u,v) = g(u0,v0) - g(u1,v1): generators in the odd space have their
squares flipped, so the grading parametrizes every signature change
Cl(p,q) -> Cl(r,s) with r = p0+q1, s = q0+p1.

``vee_alpha`` computes the deformed product as what the paper shows it
to be: the Clifford product of g_a, i.e. the row kernel with the odd
generators' squares flipped (``vee_alpha_row_op``), extended bilinearly
by ``core.bilinear``.  That is checked, not assumed:
``verify_clifford_map`` reads the same row function, compares it with
the definition v ∨ a = v^a + alpha(v)⌟a, summed from the original
metric's blade kernels, on every (generator, blade) pair (a whole row
per generator, against rows a sweep makes once per signature) and
certifies its associativity, which together pin the product users
compute to the product the definition generates.  Two further routes are
kept, for the tests, as independent cross-checks: the split form against
the original product (``vee_alpha_via_split``) and, for the all-odd
grading, Lounesto's tilt closed form (``tilt_product``).  The
alternative bilinear product ``vee_prime``, read through
``vee_prime_row_op``, flips products of odd components instead; it
respects the grading but relates to the exterior product only through
parity-weighted antisymmetrization.  Where the naive antisymmetrization
(x ∨' y - y ∨' x)/2 differs from x^y, ``find_wedge_counterexample``
names a witness: both sides are antisymmetric and bilinear in (x, y), so
they agree on all vectors exactly when they agree on every basis pair
(e_i, e_j) with i < j, and those pairs are all it reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import xor
from typing import NamedTuple

from . import kernels
from .classify import classify_clifford
from .core import (
    Multivector,
    Signature,
    _check_same_sig,
    all_blades,
    bilinear,
    even_grade_part,
    extended_metric,
    geometric_product,
    kept,
    odd_grade_part,
    parity,
    wedge,
)
from .grading import Z2Grading, project_even, project_odd
from .oracle import CheckResult, blade_frame, oracle


def _require_vector(v: Multivector, what: str) -> None:
    if not v.is_vector():
        raise ValueError(f"{what} must be a 1-vector, got grades {sorted(v.grades())}")


def deformed_metric(u: Multivector, v: Multivector, gr: Z2Grading) -> Fraction:
    """g_a(u,v) = g(u0,v0) - g(u1,v1) on 1-vectors."""
    _check_same_sig(u, gr)
    _check_same_sig(v, gr)
    _require_vector(u, "first argument")
    _require_vector(v, "second argument")
    return extended_metric(project_even(u, gr), project_even(v, gr)) - extended_metric(
        project_odd(u, gr), project_odd(v, gr)
    )


def target_signature(gr: Z2Grading) -> tuple[int, int]:
    """Signature (r,s) of the deformed metric: r = p0+q1, s = q0+p1."""
    p0, q0, p1, q1 = gr.counts()
    return p0 + q1, q0 + p1


def vee_alpha_row_op(gr: Z2Grading):
    """Row sign function of ∨: the geometric-product row under the
    negative-square mask neg ^ odd, i.e. the Clifford product of g_a.
    ``vee_alpha`` reads it, and so do the checks that certify it."""
    neg = gr.sig.neg_mask ^ gr.odd_mask
    return lambda x, cols: (kernels.blade_mul_row(x, cols, neg), 0)


def vee_alpha_key(gr: Z2Grading) -> tuple[int, int]:
    """(n, neg ^ odd): the only part of a grading that ∨ reads.  The n+1
    gradings of one n with the same mask, one per signature, have the same
    ∨ and the same target Cl(n - |m|, |m|)."""
    return gr.sig.n, gr.sig.neg_mask ^ gr.odd_mask


def vee_alpha(a: Multivector, b: Multivector, gr: Z2Grading) -> Multivector:
    """The deformed Clifford product on arbitrary multivectors.

    Defined on vectors by v ∨ b = v^b + alpha(v)⌟b.  The product it
    generates is the Clifford product of the deformed metric g_a, whose
    odd generators square to minus their original squares, so on blades
    it is ``vee_alpha_row_op``, the row function verify_clifford_map
    checks against the definition and certifies associative and true to
    the g_a generator relations.
    """
    _check_same_sig(a, gr)
    _check_same_sig(b, gr)
    return bilinear(a, b, vee_alpha_row_op(gr))


def vee_alpha_via_split(v: Multivector, a: Multivector, gr: Z2Grading) -> Multivector:
    """Independent route for a 1-vector ``v``: v ∨ a = v0 a + â v1,
    written entirely with the original geometric product."""
    _check_same_sig(v, gr)
    _check_same_sig(a, gr)
    _require_vector(v, "first argument")
    v0 = project_even(v, gr)
    v1 = project_odd(v, gr)
    return geometric_product(v0, a) + geometric_product(parity(a), v1)


def tilt_product(a: Multivector, b: Multivector) -> Multivector:
    """Lounesto's tilt to the opposite metric: the deformed product of the
    all-odd grading in closed form, a ∨ b = b0 a0 + b0 a1 + b1 a0 - b1 a1
    with even/odd grade parts."""
    _check_same_sig(a, b)
    a0, a1 = even_grade_part(a), odd_grade_part(a)
    b0, b1 = even_grade_part(b), odd_grade_part(b)
    return (
        geometric_product(b0, a0)
        + geometric_product(b0, a1)
        + geometric_product(b1, a0)
        - geometric_product(b1, a1)
    )


def vee_prime_row_op(gr: Z2Grading):
    """Row sign function of ∨': x ∨' y = (-1)^(π(x)π(y)) y x, with π
    the alpha-parity of a blade.  The row of y x is ``blade_mul_col``;
    when x is alpha-odd, the positions of odd π(y), the XOR of the planes
    of the odd generators, change sign."""
    neg, odd = gr.sig.neg_mask, gr.odd_mask

    def row_op(x: int, cols) -> tuple[int, int]:
        row = kernels.blade_mul_col(x, cols, neg)
        if (x & odd).bit_count() & 1:
            row ^= reduce(xor, (p for i, p in enumerate(cols[1]) if odd >> i & 1), 0)
        return row, 0

    return row_op


def vee_prime(a: Multivector, b: Multivector, gr: Z2Grading) -> Multivector:
    """The alternative deformed product: on alpha-homogeneous elements of
    parities i, j it is (-1)^(ij) times the original product in reversed
    order, extended bilinearly.  Associative, and respects the grading.
    """
    _check_same_sig(a, gr)
    _check_same_sig(b, gr)
    return bilinear(a, b, vee_prime_row_op(gr))


def naive_antisymmetrization(x: Multivector, y: Multivector, gr: Z2Grading) -> Multivector:
    """(x ∨' y - y ∨' x) / 2 — matches x^y under the all-odd grading but
    not in general."""
    return (vee_prime(x, y, gr) - vee_prime(y, x, gr)) / 2


def weighted_antisymmetrization(x: Multivector, y: Multivector, gr: Z2Grading) -> Multivector:
    """The parity-weighted combination that recovers x^y for every
    grading: sum over parities i,j of (-1)^(ij) (y_i ∨' x_j - x_j ∨' y_i)/2."""
    _require_vector(x, "first argument")
    _require_vector(y, "second argument")
    xs = (project_even(x, gr), project_odd(x, gr))
    ys = (project_even(y, gr), project_odd(y, gr))
    total = Multivector.zero(x.sig)
    for i in (0, 1):
        for j in (0, 1):
            term = vee_prime(ys[i], xs[j], gr) - vee_prime(xs[j], ys[i], gr)
            total = total - term if i and j else total + term
    return total / 2


class WedgeWitness(NamedTuple):
    """Vectors where the naive antisymmetrization of ∨' fails to equal
    the exterior product."""

    x: Multivector
    y: Multivector
    exterior: Multivector
    antisymmetrized: Multivector


def find_wedge_counterexample(gr: Z2Grading) -> WedgeWitness | None:
    """The first basis pair (e_i, e_j), i < j in lexicographic order,
    with e_i^e_j != (e_i ∨' e_j - e_j ∨' e_i)/2, or None.

    Both sides are antisymmetric and bilinear in (x, y), so they agree on
    all 1-vectors exactly when they agree on every basis pair: None means
    the identity holds for all vectors (as for the all-odd grading, or
    n < 2), and no other search could find a witness these pairs miss.
    """
    sig = gr.sig
    for i in range(1, sig.n + 1):
        for j in range(i + 1, sig.n + 1):
            x, y = Multivector.basis_vector(sig, i), Multivector.basis_vector(sig, j)
            lhs, rhs = wedge(x, y), naive_antisymmetrization(x, y, gr)
            if lhs != rhs:
                return WedgeWitness(x, y, lhs, rhs)
    return None


class CliffordMapReport(NamedTuple):
    """verify_clifford_map outcome: generator relations for the deformed
    metric, the defining identity, associativity, and fingerprint
    identity with Cl(r,s)."""

    grading: Z2Grading
    target: tuple[int, int]
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> int:
        return sum(not c.ok for c in self.checks)


def generator_relations(row_op, n: int, neg: int) -> CheckResult:
    """e_i e_j + e_j e_i = 2 g(e_i, e_j) on the n generators, for the
    product whose row sign function is ``row_op`` and the metric whose
    generators in the mask ``neg`` square to -1, the rest to +1.  Read
    from the n rows e_i (e_1, ..., e_n), over the n(n+1)/2 pairs i <= j:
    both products of a pair lie on e_i ^ e_j, so their sum is the sum of
    their signs on it.  A failing check names its first pair."""
    generators = [1 << k for k in range(n)]
    cols = kernels.columns(generators)
    rows = [row_op(a, cols) for a in generators]
    count, first = 0, None
    for i, a in enumerate(generators):
        for j in range(i, n):
            want = (-2 if a & neg else 2) if i == j else 0
            if kernels.row_sign(rows[i], j) + kernels.row_sign(rows[j], i) != want:
                count += 1
                first = first or (a, generators[j])
    return CheckResult.counted("generator-relations", f"{n * (n + 1) // 2} pairs", count, first)


def _expected_rows(e: int, blades: list[int], neg: int) -> tuple[tuple, tuple]:
    """The rows e^A + e⌟A and e^A - e⌟A over ``blades`` for the generator
    ``e``, under the metric whose generators in ``neg`` square to -1, as
    rows ``(neg, zero)``, from one call of each pair kernel per blade A.
    Where both terms lie on e ^ A, or vanish, a position holds their sum's
    sign: the ``neg`` bit for -1, the ``zero`` bit for 0.  Any other sum,
    a term off e ^ A or a total of ±2, sets both bits, which no row of a
    product has."""
    negs, zeros = [0, 0], [0, 0]
    for j, a in enumerate(blades):
        (w, wm), (c, cm) = kernels.blade_wedge(e, a), kernels.blade_left_contract(e, a, neg)
        off = (w and wm != e ^ a) or (c and cm != e ^ a)
        for k, total in enumerate((w + c, w - c)):
            bad = off or abs(total) > 1
            negs[k] |= (bad or total < 0) << j
            zeros[k] |= (bad or not total) << j
    return (negs[0], zeros[0]), (negs[1], zeros[1])


def _definition_rows(sig: Signature) -> tuple[tuple, list[tuple[tuple, tuple]]]:
    """The column view of ``all_blades(sig)`` and, for each generator e of
    ``sig``, the rows e^A + e⌟A and e^A - e⌟A over it: what e ∨ A must be
    for even and for odd e.

    Each entry is summed from the original metric's wedge and contraction
    kernels, one call of each per (generator, blade) pair
    (``_expected_rows``), never from ∨, so comparing it with a ∨ row is no
    tautology.
    The rows depend on the signature alone, so a caller's dict may keep
    them for every grading of it (``definition_check``)."""
    blades = all_blades(sig)
    rows = [_expected_rows(1 << k, blades, sig.neg_mask) for k in range(sig.n)]
    return kernels.columns(blades), rows


def definition_check(sig: Signature, row_op, odd: int, shared: dict | None = None) -> CheckResult:
    """e ∨ A = e^A + alpha(e)⌟A on every generator e and blade A of
    ``sig``, for the product whose row sign function is ``row_op`` and the
    grading whose generators in the mask ``odd`` are alpha-odd.  One row
    e ∨ (every blade) per generator is compared, as two integers, with
    the row e^A ± e⌟A of ``_definition_rows``, the sign picked by
    alpha(e) = ±e; the bits where a row differs name its violations.
    Both sides are bilinear, so the identity then holds for every 1-vector
    and multivector.  With ``odd`` = 0 it is v a = v^a + v⌟a for the
    geometric product.  The rows are made by this call, or, with a dict
    ``shared``, kept there under ("rows", p, q) by the first call for the
    signature."""
    cols, rows = kept(shared, ("rows", sig.p, sig.q), lambda: _definition_rows(sig))
    blades = cols[0]
    count, first = 0, None
    for k, (plus, minus) in enumerate(rows):
        e = 1 << k
        want, got = (minus if e & odd else plus), row_op(e, cols)
        if got != want:
            off = (got[0] ^ want[0]) | (got[1] ^ want[1])
            count += off.bit_count()
            first = first or (e, blades[(off & -off).bit_length() - 1])
    pairs = f"{sig.n * len(blades)} (generator, blade) pairs"
    return CheckResult.counted("definition", pairs, count, first)


def verify_clifford_map(gr: Z2Grading, *, shared: dict | None = None) -> CliffordMapReport:
    """Establish that the deformed product realizes Cl(r,s) on the carrier,
    reading ∨ only through its row sign function, so no multivector is built.

    (i) generator relations e_i ∨ e_j + e_j ∨ e_i = 2 g_a(e_i,e_j), from
    the n rows e_i ∨ (e_1, ..., e_n);
    (ii) the definition e ∨ A = e^A + alpha(e)⌟A on every generator and
    blade (``definition_check``): each generator's whole ∨ row against the
    row e^A ± e⌟A summed from the original metric's wedge and contraction
    kernels;
    (iii) associativity, by the oracle's bicharacter certificate over
    every blade pair (``oracle.certify``), whose verdict is reported
    unchanged;
    (iv) the fingerprint of the blade basis under ∨ equals that of Cl(r,s).
    All four read ``vee_alpha_row_op``.  (ii) and (iii) together make ∨ the
    product that folding generators by the definition produces.  Each
    failing check names its first witness.

    (i), (iii) and (iv) read ∨ alone, and (r, s) = (n - |m|, |m|), so they
    are functions of ``vee_alpha_key(gr)`` = (n, m = neg ^ odd); only (ii)
    reads alpha and the original metric apart.  Its expected rows depend
    on the signature alone, never on that key; each grading picks its rows
    by alpha and reads its own ∨ rows against them.  With no ``shared``
    the call makes everything it reads.  ``shared``, a dict the caller
    owns, keeps (``kept``) the three ``CheckResult``s of (i), (iii) and
    (iv) by the key, the expected rows by the signature, and the frame of
    the 2^n blades (``oracle.blade_frame``), which the pass of (iii)
    reads, by ("frame", n): a grading whose entries are there reuses them,
    exactly as if it had made them, and one whose entries are not stores
    its own.  It holds no certificate.
    """
    sig = gr.sig
    neg, odd = sig.neg_mask, gr.odd_mask
    row_op = vee_alpha_row_op(gr)
    r, s = target_signature(gr)

    def product_checks():
        cls = classify_clifford(r, s)
        blades = all_blades(sig)
        frame = kept(shared, ("frame", sig.n), lambda: blade_frame(blades))
        associativity, problem = oracle(blades, row_op, cls, frame=frame)
        found = problem or "fingerprints agree"
        return (
            # g_a(e, e) is -g(e, e) for odd e
            generator_relations(row_op, sig.n, neg ^ odd),
            associativity,
            CheckResult("fingerprint", not problem, f"target Cl({r},{s}) ~ {cls}; {found}"),
        )

    relations, associativity, fingerprint = kept(shared, vee_alpha_key(gr), product_checks)
    definition = definition_check(sig, row_op, odd, shared)
    return CliffordMapReport(gr, (r, s), [relations, definition, associativity, fingerprint])
