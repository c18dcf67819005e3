"""Verification sweeps behind the ``verify`` CLI command.

Each suite re-derives a family of facts cell by cell and cross-checks the
closed-form classification against the structural oracle (or products
against their defining laws), timing each cell.  Cells are pure
computations, except that the cells of one signature in ``table4``, and
``core``'s associativity and involutions cells, read one certificate of
the whole algebra (``whole_algebra``), made in the first cell that needs
it, and ``sigchange`` cells with the same deformed metric, keyed
(n, neg ^ odd), share the three checks that read ∨ alone, made in the
first such cell.  Both sharings are exact: a shared result is the one the
cell would compute alone.  ``sigchange`` cells of one signature, and its
``core`` decomposition cell, also read the same expected definition rows,
summed from the original metric's kernels in the first cell that needs
them; each cell compares its own rows with them.  A sweep could fan out
to workers one n each, but stays sequential to keep report ordering
deterministic.

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
``certify`` pass over all blade pairs.  The core suite's generator
relations read the generator rows; its adjointness cell decides all
dim**3 blade triples from the kernel rows by pairs; its involutions cell
reads ``core.parity`` and ``core.reversion`` on every blade and decides
their laws on every blade pair off the certificate; and its
decomposition cell is ``sigchange``'s definition check for the trivial
grading, on every (generator, blade) pair, which decides the bilinear
identity for all vectors and multivectors.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache

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
    blade_sort_key,
    geometric_row_op,
    parity,
    reversion,
)
from .grading import Z2Grading, even_subalgebra_basis
from .oracle import Certificate, certify, format_blades, oracle
from .sigchange import CheckResult, definition_check, generator_relations, verify_clifford_map


@dataclass
class Cell:
    key: str
    ok: bool
    detail: str
    seconds: float


@dataclass
class SuiteReport:
    suite: str
    cells: list[Cell] = field(default_factory=list)

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _timed(report: SuiteReport, key: str, fn) -> None:
    start = time.perf_counter()
    ok, detail = fn()
    report.cells.append(Cell(key, ok, detail, time.perf_counter() - start))


def _cell_result(head: str, *problems: str) -> tuple[bool, str]:
    """A cell's result: ``head``, then each nonempty problem after "; "."""
    problems = [p for p in problems if p]
    return not problems, "; ".join([head, *problems])


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


@lru_cache(maxsize=1)
def whole_algebra(sig: Signature) -> Certificate:
    """The one certificate of every blade of ``sig`` under the geometric
    product that a suite's cells share.  A sweep visits one signature's
    cells in a row, so only the last signature's is kept; each suite that
    reads it clears it first, so a run never reads another run's pass."""
    return certify(all_blades(sig), geometric_row_op(sig))


def even_subalgebra_problem(
    sig: Signature, p0: int, q0: int, cls: AlgebraClass, *, certificate: Certificate | None = None
) -> str:
    """The one fingerprint check of the tables and ``classify --oracle``:
    the even subalgebra of the canonical grading of ``sig`` whose even
    1-vectors have signature (p0, q0), under the geometric product,
    against ``cls``.  "" when it agrees, else the first problem: wrong
    grading counts, or the oracle's verdict.  ``certificate``, of every
    blade of ``sig`` under the geometric product, lets the oracle read
    the fingerprint off it."""
    p1, q1 = sig.p - p0, sig.q - q0
    mask = canonical_odd_mask(sig, p1, q1)
    gr = Z2Grading(sig, mask)
    if gr.counts() != (p0, q0, p1, q1):
        return f"odd mask {mask:#b} has counts {gr.counts()}, expected {(p0, q0, p1, q1)}"
    basis = even_subalgebra_basis(gr)
    return oracle(basis, geometric_row_op(sig), cls, certificate=certificate).problem


# ---------------------------------------------------------------------------
# suites


def verify_table1(max_n: int) -> SuiteReport:
    """Fingerprint of (carrier, geometric product) against the closed-form
    class of Cl(p,q), for every signature with p+q <= max_n."""
    report = SuiteReport("table1")
    for sig in signatures_up_to(max_n):

        def cell(sig=sig):
            cls = classify_clifford(sig.p, sig.q)
            problem = even_subalgebra_problem(sig, sig.p, sig.q, cls)
            return _cell_result(f"{sig} ~ {cls}", problem)

        _timed(report, f"{sig.p},{sig.q}", cell)
    return report


def verify_table2(max_n: int) -> SuiteReport:
    """Even-grade subalgebras: oracle fingerprint, plus the closed-form
    identities Cl+(p,q) ~ Cl(q,p-1) ~ Cl(p,q-1)."""
    report = SuiteReport("table2")
    for sig in signatures_up_to(max_n):
        if sig.n < 1:
            continue

        def cell(sig=sig):
            cls = classify_even_part(sig.p, sig.q)
            problems = []
            if sig.p >= 1 and cls != classify_clifford(sig.q, sig.p - 1):
                problems.append(f"!= Cl({sig.q},{sig.p - 1})")
            if sig.q >= 1 and cls != classify_clifford(sig.p, sig.q - 1):
                problems.append(f"!= Cl({sig.p},{sig.q - 1})")
            problem = even_subalgebra_problem(sig, 0, 0, cls)
            return _cell_result(f"Cl+({sig.p},{sig.q}) ~ {cls}", *problems, problem)

        _timed(report, f"{sig.p},{sig.q}", cell)
    return report


def verify_table4(max_n: int) -> SuiteReport:
    """The central sweep: for every (p,q,p0,q0), the even subalgebra of
    the grading with even signature (p0,q0) against
    classify_even_subalgebra.

    Every even subalgebra of Cl(p,q) is a subgroup of its blades, so one
    certificate of the whole algebra (``whole_algebra``), made in the
    signature's first cell, gives every cell its fingerprint.  Where that
    pass fails, each cell runs its own, and fails or passes as it would
    alone."""
    report = SuiteReport("table4")
    whole_algebra.cache_clear()
    for sig in signatures_up_to(max_n):
        for p0 in range(sig.p + 1):
            for q0 in range(sig.q + 1):

                def cell(sig=sig, p0=p0, q0=q0):
                    cls = classify_even_subalgebra(sig.p, sig.q, p0, q0)
                    problem = even_subalgebra_problem(
                        sig, p0, q0, cls, certificate=whole_algebra(sig)
                    )
                    return _cell_result(f"Cl0 ~ {cls}", problem)

                _timed(report, f"{sig.p},{sig.q},{p0},{q0}", cell)
    return report


def verify_sigchange(max_n: int) -> SuiteReport:
    """verify_clifford_map over every grading of every Cl(p,q), p+q <= max_n.

    ∨ depends on a grading only through (n, neg ^ odd), so the n+1
    gradings of one n with the same mask share its generator-relation,
    associativity and fingerprint checks, run in the first such cell.  Each
    cell still runs its own definition check, which reads alpha: it
    compares the grading's ∨ rows with the expected rows e^A ± e⌟A, which
    depend on the signature alone and are made in its first cell.  The
    report equals one whose cells each run verify_clifford_map alone."""
    report = SuiteReport("sigchange")
    shared = {}
    for sig in signatures_up_to(max_n):
        for gr in all_gradings(sig):

            def cell(gr=gr):
                res = verify_clifford_map(gr, shared=shared)
                r, s = res.target
                return _cell_result(
                    f"-> Cl({r},{s})",
                    *(f"{c.name}: {c.detail}" for c in res.checks if not c.ok),
                )

            odd = ",".join(str(i) for i in gr.odd_indices)
            _timed(report, f"{sig.p},{sig.q},odd={odd}", cell)
    return report


def verify_core(max_n: int) -> SuiteReport:
    """Base-product laws per signature, all exact at every n: generator
    relations, associativity (the certificate over every blade pair),
    contraction adjointness on every blade triple, the involution laws on
    every blade pair, and v a = v^a + v⌟a on every (generator, blade) pair.

    The associativity and involutions cells read one certificate of the
    signature (``whole_algebra``).  Where it is not clean, the involutions
    cell fails and quotes the associativity verdict."""
    report = SuiteReport("core")
    whole_algebra.cache_clear()
    for sig in signatures_up_to(max_n):
        blades = all_blades(sig)

        def gen_cell(sig=sig):
            res = generator_relations(geometric_row_op(sig), sig.n, sig.neg_mask)
            return res.ok, res.detail

        def assoc_cell(sig=sig):
            verdict = whole_algebra(sig).verdict
            return verdict.associative, verdict.associativity

        def adjoint_cell(sig=sig, blades=blades):
            # For each a, every side of g(a⌟b, c) = g(b, ã∧c) and of
            # g(b⌞a, c) = g(b, c∧ã) is nonzero at most at one c per b (the
            # contraction's mask) or one b per c (the wedge's mask): a map
            # (b, c) -> value read from one kernel row.  An identity holds on
            # all dim**2 pairs (b, c) exactly when its two maps are equal.
            neg, g, wg = sig.neg_mask, kernels.blade_metric_sign, kernels.blade_wedge
            lc, rc = kernels.blade_left_contract, kernels.blade_right_contract
            bad = []
            for a in blades:
                rev = -1 if kernels.grade(a) // 2 & 1 else 1
                contracted = (  # g(a⌟b, c) and g(b⌞a, c)
                    {(b, m): s * g(m, neg) for b in blades for s, m in [lc(a, b, neg)] if s},
                    {(b, m): s * g(m, neg) for b in blades for s, m in [rc(b, a, neg)] if s},
                )
                wedged = (  # g(b, ã∧c) and g(b, c∧ã)
                    {(m, c): rev * s * g(m, neg) for c in blades for s, m in [wg(a, c)] if s},
                    {(m, c): rev * s * g(m, neg) for c in blades for s, m in [wg(c, a)] if s},
                )
                if contracted == wedged:
                    continue
                off = {
                    k
                    for x, y in zip(contracted, wedged)
                    for k in x.keys() | y.keys()
                    if x.get(k) != y.get(k)
                }
                bad += sorted(((a, *k) for k in off), key=lambda t: [*map(blade_sort_key, t)])
            res = CheckResult.counted("adjointness", f"{len(blades) ** 3} triples", bad)
            return res.ok, res.detail

        def involution_cell(sig=sig, blades=blades):
            # each involution must send every blade to ± itself; a blade
            # product is then ± a ^ b, so parity is an automorphism exactly
            # when its signs are a character, and reversion an
            # anti-automorphism exactly when its signs are a quadratic
            # refinement of σ(a,b)σ(b,a), both decided off the certificate
            head, names = f"{len(blades)} blades: ", ("parity", "reversion")
            signs = ({}, {})
            for name, law, sign in zip(names, (parity, reversion), signs):
                for a in blades:
                    x = Multivector.blade(sig, a)
                    sign[a] = {x: 1, -x: -1}.get(law(x))
                    if sign[a] is None:
                        return False, f"{head}{name} sends {format_blades([a])} off ± itself"
            certificate = whole_algebra(sig)
            if not certificate.verdict.ok:
                return False, f"{head}no certificate: {certificate.verdict.associativity}"
            pairs = certificate.involution_witnesses(*signs)
            forms = ("a character", "a quadratic refinement of the commutation bicharacter")
            laws = [
                f"{name} {form}" if pair is None
                else f"{name} not {form}, first {format_blades(pair)}"
                for name, form, pair in zip(names, forms, pairs)
            ]
            return pairs == (None, None), head + ", ".join(laws)

        def decomposition_cell(sig=sig):
            res = definition_check(sig, geometric_row_op(sig), 0)
            return res.ok, res.detail

        key = f"{sig.p},{sig.q}"
        _timed(report, f"{key}:generators", gen_cell)
        _timed(report, f"{key}:associativity", assoc_cell)
        _timed(report, f"{key}:adjointness", adjoint_cell)
        _timed(report, f"{key}:involutions", involution_cell)
        _timed(report, f"{key}:decomposition", decomposition_cell)
    return report


#: Each suite's function and its default max_n.
_SUITE_FNS = {
    "table1": (verify_table1, 6),
    "table2": (verify_table2, 6),
    "table4": (verify_table4, 6),
    "sigchange": (verify_sigchange, 5),
    "core": (verify_core, 6),
}

SUITES = tuple(_SUITE_FNS) + ("all",)


def run_suite(name: str, max_n: int | None = None, _seed=None) -> SuiteReport:
    """Run one suite (or 'all'); max_n defaults per suite and is capped at
    the package dimension limit.  No cell draws at random, so the third
    argument is ignored; it is accepted only because the benchmark's sweep
    script still passes a seed."""
    if name == "all":
        combined = SuiteReport("all")
        for sub in _SUITE_FNS:
            rep = run_suite(sub, max_n)
            for c in rep.cells:
                combined.cells.append(
                    Cell(f"{sub}/{c.key}", c.ok, c.detail, c.seconds)
                )
        return combined
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    fn, default_max_n = _SUITE_FNS[name]
    n = default_max_n if max_n is None else max_n
    if not 0 <= n <= MAX_DIMENSION:
        raise ValueError(f"max_n must be between 0 and {MAX_DIMENSION}")
    return fn(n)
