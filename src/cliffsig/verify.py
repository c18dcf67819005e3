"""Verification sweeps behind the ``verify`` CLI command.

Each suite re-derives a family of facts cell by cell and cross-checks the
closed-form classification against the structural oracle (or products
against their defining laws), timing each cell.  A suite is a function
that yields the cells of one signature; ``run_suite`` is the one walk
over signatures, and at each it runs the cells of every suite it was
asked for, so ``all`` visits each Cl(p,q) once.  Every cell returns one
``oracle.CheckResult``, the package's one check record, whose pass and
detail the report keeps: ``core``'s associativity cell returns the
certificate's own verdict, and its other cells the checks they run;
table and ``sigchange`` cells join a head with their problems
(``_cell_result``).  A cell that raises fails, its detail the exception's
type and message (``_timed``), so a fault in the program is a failing
cell of a report that still holds every cell, never a crash of the run.
A suite's generator yields only keys and cells, and each cell builds
what it reads (a grading, a blade list) inside ``_timed``, so no fault
can raise outside a cell.  Cells are pure computations, except that they share results through
``run_suite``'s one dict, read by ``core.kept``, the only place a shared
result lives:

* per signature, one certificate of the whole algebra
  (``whole_algebra``), read by ``table1``'s and ``table4``'s cells and
  ``core``'s associativity and involutions cells, so within ``all`` those
  three suites certify each Cl(p,q) once; and one set of expected
  definition rows, summed from the original metric's kernels, against
  which every ``sigchange`` cell and ``core``'s decomposition cell compare
  their own rows.  Each is made in the first cell of the signature that
  needs it and dropped when the walk leaves the signature;
* for the whole run, the three checks that read ∨ alone, shared by
  ``sigchange`` cells with the same deformed metric, keyed (n, neg ^ odd),
  made in the first such cell.

Every sharing is exact: a shared result is the one the cell would compute
alone, and a call with no dict computes its own, so no result outlives
the run that made it.  A sweep could fan out to workers one n each, but
stays sequential to keep report ordering deterministic.

Every table cell fingerprints through ``even_subalgebra_problem``: the
even subalgebra of the grading whose even 1-vectors have signature
(p0, q0).  The whole algebra and its even-grade part are the two
extremes, the trivial grading (p0, q0) = (p, q) and the usual one (0, 0).

Suites:

* ``table1``  — full algebras, the trivial grading: fingerprint vs
  classify_clifford.
* ``table2``  — even-grade parts, the usual grading: fingerprint vs
  classify_even_part, and the Cl+(p,q) ~ Cl(q,p-1) identity.
* ``table4``  — every grading's even subalgebra vs
  classify_even_subalgebra (the central sweep).
* ``sigchange`` — verify_clifford_map over every grading, one ∨ check per
  (n, neg ^ odd) and one set of definition rows per Cl(p,q).
* ``core``    — generator relations, associativity, contraction
  adjointness, involution laws and v a = v^a + v⌟a for the base product.

No cell samples: every law is decided exactly, at every size, and no
suite draws at random.  Every associativity verdict is the oracle's
``certify`` pass over all blade pairs, which reads the product one row
per blade, as the two integers ``(neg, zero)`` of ``kernels``, and
compares each row with the bicharacter's as one integer.  The core
suite's generator relations read the n generator rows; its adjointness
cell decides all dim**3 blade triples with two row comparisons per blade,
the rows of the contractions against those of the wedge (``kernels``'
row forms); its involutions cell reads ``core.parity`` and ``core.reversion`` on every
blade and decides their laws on every blade pair off the certificate;
and its decomposition cell is ``sigchange``'s definition check for the
trivial grading, on every (generator, blade) pair, which decides the
bilinear identity for all vectors and multivectors.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import kernels
from .classify import (
    AlgebraClass,
    classify_clifford,
    classify_even_part,
    classify_even_subalgebra,
)
from .core import (
    MAX_DIMENSION,
    Multivector,
    Signature,
    all_blades,
    blade_from_indices,
    blade_indices,
    geometric_row_op,
    kept,
    parity,
    reversion,
)
from .grading import Z2Grading, even_subalgebra_basis
from .oracle import Certificate, CheckResult, certify, format_blades, oracle
from .sigchange import definition_check, generator_relations, verify_clifford_map


class Cell(NamedTuple):
    key: str
    ok: bool
    detail: str
    seconds: float


class SuiteReport(NamedTuple):
    suite: str
    cells: list[Cell]

    @property
    def violations(self) -> int:
        return sum(not c.ok for c in self.cells)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cells": [
                {
                    "key": c.key,
                    "pass": c.ok,
                    "detail": c.detail,
                    "seconds": round(c.seconds, 6),
                }
                for c in self.cells
            ],
            "violations": self.violations,
        }


def _timed(report: SuiteReport, key: str, fn) -> None:
    """Run the cell ``fn`` and append its check, timed, to ``report``.  A
    cell that raises fails, its detail the exception's type and message,
    so a fault in the program is a failing cell of the report, never a
    crash of the run; this is the package's one catch-all."""
    start = time.perf_counter()
    try:
        check = fn()
    except Exception as exc:
        check = CheckResult("raised", False, f"raised {type(exc).__name__}: {exc}")
    report.cells.append(Cell(key, check.ok, check.detail, time.perf_counter() - start))


def _cell_result(name: str, head: str, *problems: str) -> CheckResult:
    """A cell's check ``name``: ``head``, then each nonempty problem after
    "; "; it passes when there is none."""
    problems = [p for p in problems if p]
    return CheckResult(name, not problems, "; ".join([head, *problems]))


def signatures_up_to(max_n: int):
    for n in range(max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def all_gradings(sig: Signature):
    for odd_mask in range(1 << sig.n):
        yield Z2Grading(sig, odd_mask)


def canonical_odd_mask(sig: Signature, p1: int, q1: int) -> int:
    """Odd set used in sweeps: the last p1 positive and last q1 negative
    generators.  Any other choice with the same counts is isometric."""
    return blade_from_indices(
        [*range(sig.p - p1 + 1, sig.p + 1), *range(sig.n - q1 + 1, sig.n + 1)]
    )


def whole_algebra(sig: Signature, shared: dict | None = None) -> Certificate:
    """The one certificate of every blade of ``sig`` under the geometric
    product that a run's cells share: table1's and table4's cells and
    core's associativity and involutions cells.  Made by this call, or,
    with the run's dict ``shared``, kept there under ("whole", p, q) by the
    first cell of the signature that needs it; ``run_suite`` drops it when
    its walk leaves the signature."""
    key = "whole", sig.p, sig.q
    return kept(shared, key, lambda: certify(all_blades(sig), geometric_row_op(sig)))


def even_subalgebra_problem(
    sig: Signature, p0: int, q0: int, cls: AlgebraClass, *, certificate: Certificate | None = None
) -> str:
    """The one fingerprint check of the tables and ``classify --oracle``:
    the even subalgebra of the canonical grading of ``sig`` whose even
    1-vectors have signature (p0, q0), under the geometric product,
    against ``cls``.  "" when it agrees, else the first problem: wrong
    grading counts, or the problem ``oracle`` returns beside its verdict, a
    failing pass's ``Certificate.problem`` or a fingerprint mismatch.
    ``certificate``, of every blade of ``sig`` under the geometric
    product, lets the oracle read the fingerprint off it."""
    p1, q1 = sig.p - p0, sig.q - q0
    mask = canonical_odd_mask(sig, p1, q1)
    gr = Z2Grading(sig, mask)
    if gr.counts() != (p0, q0, p1, q1):
        return f"odd mask {mask:#b} has counts {gr.counts()}, expected {(p0, q0, p1, q1)}"
    basis = even_subalgebra_basis(gr)
    return oracle(basis, geometric_row_op(sig), cls, certificate=certificate)[1]


# ---------------------------------------------------------------------------
# suites: each yields the (key, cell) pairs of one signature, given the
# run's dict of shared results, which its cells read through ``kept``


def verify_table1(sig: Signature, shared: dict):
    """Fingerprint of (carrier, geometric product) against the closed-form
    class of Cl(p,q).  The trivial grading's even subalgebra is every
    blade, so the cell reads the whole algebra's certificate
    (``whole_algebra``), as table4's cells do."""

    def cell():
        cls = classify_clifford(sig.p, sig.q)
        problem = even_subalgebra_problem(
            sig, sig.p, sig.q, cls, certificate=whole_algebra(sig, shared)
        )
        return _cell_result("fingerprint", f"{sig} ~ {cls}", problem)

    yield f"{sig.p},{sig.q}", cell


def verify_table2(sig: Signature, shared: dict):
    """Even-grade subalgebras: oracle fingerprint, plus the closed-form
    identities Cl+(p,q) ~ Cl(q,p-1) ~ Cl(p,q-1).  The fingerprint is a
    pass over the even part alone, half the blades of a whole-algebra
    pass, so the suite costs no more when it runs on its own."""
    if sig.n < 1:
        return

    def cell():
        cls = classify_even_part(sig.p, sig.q)
        problems = []
        if sig.p >= 1 and cls != classify_clifford(sig.q, sig.p - 1):
            problems.append(f"!= Cl({sig.q},{sig.p - 1})")
        if sig.q >= 1 and cls != classify_clifford(sig.p, sig.q - 1):
            problems.append(f"!= Cl({sig.p},{sig.q - 1})")
        problem = even_subalgebra_problem(sig, 0, 0, cls)
        return _cell_result("fingerprint", f"Cl+({sig.p},{sig.q}) ~ {cls}", *problems, problem)

    yield f"{sig.p},{sig.q}", cell


def verify_table4(sig: Signature, shared: dict):
    """The central sweep: for every (p0,q0), the even subalgebra of the
    grading with even signature (p0,q0) against classify_even_subalgebra.

    Every even subalgebra of Cl(p,q) is a subgroup of its blades, so one
    certificate of the whole algebra (``whole_algebra``) gives every cell
    its fingerprint.  Where that pass fails, each cell runs its own, and
    fails or passes as it would alone."""
    for p0 in range(sig.p + 1):
        for q0 in range(sig.q + 1):

            def cell(p0=p0, q0=q0):
                cls = classify_even_subalgebra(sig.p, sig.q, p0, q0)
                problem = even_subalgebra_problem(
                    sig, p0, q0, cls, certificate=whole_algebra(sig, shared)
                )
                return _cell_result("fingerprint", f"Cl0 ~ {cls}", problem)

            yield f"{sig.p},{sig.q},{p0},{q0}", cell


def verify_sigchange(sig: Signature, shared: dict):
    """verify_clifford_map over every grading of Cl(p,q).

    ∨ depends on a grading only through (n, neg ^ odd), so the n+1
    gradings of one n with the same mask share its generator-relation,
    associativity and fingerprint checks, kept in ``shared`` by the first
    such cell.  Each cell still runs its own definition check, which reads
    alpha: it compares the grading's ∨ rows with the expected rows
    e^A ± e⌟A, which depend on the signature alone and are made in its
    first cell.  The report equals one whose cells each run
    verify_clifford_map alone."""
    for odd in range(1 << sig.n):

        def cell(odd=odd):
            res = verify_clifford_map(Z2Grading(sig, odd), shared=shared)
            r, s = res.target
            return _cell_result(
                "clifford-map",
                f"-> Cl({r},{s})",
                *(f"{c.name}: {c.detail}" for c in res.checks if not c.ok),
            )

        yield f"{sig.p},{sig.q},odd={','.join(map(str, blade_indices(odd)))}", cell


def verify_core(sig: Signature, shared: dict):
    """Base-product laws, all exact at every n: generator relations,
    associativity (the certificate over every blade pair), contraction
    adjointness on every blade triple (two row comparisons per blade), the
    involution laws on every blade pair, and v a = v^a + v⌟a on every
    (generator, blade) pair.

    The associativity and involutions cells read the signature's one
    certificate (``whole_algebra``).  Where it is not clean, the
    involutions cell fails and quotes the associativity verdict."""

    def gen_cell():
        return generator_relations(geometric_row_op(sig), sig.n, sig.neg_mask)

    def assoc_cell():
        return whole_algebra(sig, shared).verdict

    def adjoint_cell():
        # For each a, every side of g(a⌟b, c) = g(b, ã∧c) and of
        # g(b⌞a, c) = g(b, c∧ã) is nonzero only at c = a ^ b, so each
        # identity compares two rows over b: the contraction's over the
        # view where position b holds b, the wedge's over the view with a's
        # planes flipped, where it holds a ^ b.  The zeros must agree, and
        # elsewhere the signs differ by rev(a) g(a), as g(a ^ b) g(b) = g(a).
        # The flipped view has no blade list: wedge_rows reads planes alone.
        blades = all_blades(sig)
        cols = kernels.columns(range(len(blades)))
        full = (1 << len(blades)) - 1
        count, first = 0, None
        for a in blades:
            flipped = None, [p ^ full if a >> i & 1 else p for i, p in enumerate(cols[1])]
            flip = (kernels.grade(a) // 2 ^ (a & sig.neg_mask).bit_count()) & 1
            off = 0
            for (nc, zc), (nw, zw) in zip(
                kernels.contraction_rows(a, cols, sig.neg_mask), kernels.wedge_rows(a, flipped)
            ):
                off |= (zc ^ zw) | (nc ^ nw ^ -flip) & (full ^ (zc | zw))
            if off:
                # position b of the view holds blade b; a bit past the last
                # blade is a violation too, named by its position
                b = (off & -off).bit_length() - 1
                count += off.bit_count()
                first = first or (a, b, a ^ b)
        return CheckResult.counted("adjointness", f"{len(blades) ** 3} triples", count, first)

    def involution_cell():
        # each involution must send every blade to ± itself; a blade
        # product is then ± a ^ b, so parity is an automorphism exactly
        # when its signs are a character, and reversion an
        # anti-automorphism exactly when its signs are a quadratic
        # refinement of σ(a,b)σ(b,a), both decided off the certificate
        blades = all_blades(sig)
        head, names = f"{len(blades)} blades: ", ("parity", "reversion")
        xs = [Multivector.blade(sig, a) for a in blades]
        negated = [-x for x in xs]
        signs = ({}, {})
        for name, law, sign in zip(names, (parity, reversion), signs):
            for a, x, minus_x in zip(blades, xs, negated):
                y = law(x)
                sign[a] = 1 if y == x else -1 if y == minus_x else None
                if sign[a] is None:
                    off = f"{name} sends {format_blades([a])} off ± itself"
                    return CheckResult("involutions", False, head + off)
        certificate = whole_algebra(sig, shared)
        if not certificate.verdict.ok:
            off = f"no certificate: {certificate.verdict.detail}"
            return CheckResult("involutions", False, head + off)
        pairs = certificate.involution_witnesses(*signs)
        forms = ("a character", "a quadratic refinement of the commutation bicharacter")
        laws = [
            f"{name} {form}" if pair is None
            else f"{name} not {form}, first {format_blades(pair)}"
            for name, form, pair in zip(names, forms, pairs)
        ]
        return CheckResult("involutions", pairs == (None, None), head + ", ".join(laws))

    def decomposition_cell():
        return definition_check(sig, geometric_row_op(sig), 0, shared)

    key = f"{sig.p},{sig.q}"
    yield f"{key}:generators", gen_cell
    yield f"{key}:associativity", assoc_cell
    yield f"{key}:adjointness", adjoint_cell
    yield f"{key}:involutions", involution_cell
    yield f"{key}:decomposition", decomposition_cell


#: Each suite's cells of one signature.
_SUITE_FNS = {
    "table1": verify_table1,
    "table2": verify_table2,
    "table4": verify_table4,
    "sigchange": verify_sigchange,
    "core": verify_core,
}

#: The largest p+q a suite sweeps when no max_n is given.
DEFAULT_MAX_N = 6

SUITES = tuple(_SUITE_FNS) + ("all",)


def run_suite(name: str, max_n: int | None = None, _seed=None) -> SuiteReport:
    """Run one suite, or 'all' of them, over every p+q <= max_n; max_n
    defaults to ``DEFAULT_MAX_N`` and is capped at the package dimension
    limit.  No cell draws at random, so the third argument is ignored; it
    is accepted only because the benchmark's sweep script still passes a
    seed.

    This is the one walk over signatures.  It makes the run's one dict of
    shared results, which every suite's cells read through ``core.kept``.
    At each signature it runs the cells of every requested suite, in
    ``SUITES`` order, timing each into that suite's report, then drops the
    signature's certificate (``whole_algebra``) and definition rows, so
    the dict keeps only sigchange's ∨ checks between signatures; 'all'
    then joins the reports, each key prefixed with its suite.  Within
    'all', table1, table4 and core thus read one certificate per
    signature, and the first cell of a signature, table1's, pays for its
    pass.  Nothing the dict holds outlives the run."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if max_n is not None and not 0 <= max_n <= MAX_DIMENSION:
        raise ValueError(f"max_n must be between 0 and {MAX_DIMENSION}")
    names = list(_SUITE_FNS) if name == "all" else [name]
    reports = {sub: SuiteReport(sub, []) for sub in names}
    shared = {}
    for sig in signatures_up_to(DEFAULT_MAX_N if max_n is None else max_n):
        for sub in names:
            for key, cell in _SUITE_FNS[sub](sig, shared):
                _timed(reports[sub], key, cell)
        shared.pop(("whole", sig.p, sig.q), None)
        shared.pop(("rows", sig.p, sig.q), None)
    if name != "all":
        return reports[name]
    cells = [c._replace(key=f"{sub}/{c.key}") for sub, rep in reports.items() for c in rep.cells]
    return SuiteReport("all", cells)
