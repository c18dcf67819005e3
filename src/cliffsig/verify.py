"""Verification sweeps behind the ``verify`` CLI command.

Each suite re-derives a family of facts cell by cell and cross-checks the
closed-form classification against the structural oracle (or products
against their defining laws), timing each cell.  Cells are pure
computations, except that a ``table4`` signature's cells share one
certificate, made in its first cell; a sweep could fan out to workers
one signature each, but stays sequential to keep report ordering
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
* ``sigchange`` — verify_clifford_map over every grading.
* ``core``    — generator relations, associativity, contraction
  adjointness and involution laws for the base product.

No suite samples a blade law.  Every associativity verdict is the
oracle's ``certify`` pass over all blade pairs, which proves associativity
exactly at every size; the core suite's generator relations read the
generator rows, and its adjointness cell decides all dim**3 blade triples
from the kernel rows by pairs.  The suites' only random draws are the
seeded multivectors of the core suite's involution and decomposition
cells, which check ``core.bilinear``.
"""

from __future__ import annotations

import json
import random
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
    _reduced,
    all_blades,
    blade_from_indices,
    blade_sort_key,
    geometric_product,
    geometric_row_op,
    left_contraction,
    parity,
    reversion,
    wedge,
)
from .grading import Z2Grading, even_subalgebra_basis
from .oracle import Certificate, certify, oracle
from .sigchange import CheckResult, generator_relations, verify_clifford_map

DEFAULT_SEED = 0

#: Random draws per involution and decomposition cell of the core suite.
CORE_DRAWS = 75

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


def random_multivector(rng: random.Random, sig: Signature) -> Multivector:
    """Sum of four seeded random blades times n/d, n in [-8, 8] and
    d in [1, 6]; drawn as numerators over 60."""
    num: dict[int, int] = {}
    for _ in range(4):
        mask = rng.randrange(1 << sig.n)
        num[mask] = num.get(mask, 0) + rng.randint(-8, 8) * (60 // rng.randint(1, 6))
    return _reduced(sig, {m: n for m, n in num.items() if n}, 60)


def random_vector(rng: random.Random, sig: Signature) -> Multivector:
    """1-vector with seeded random rational coefficients n/d, n in [-6, 6]
    and d in [1, 4], e_1 first; drawn as numerators over 12."""
    num = {1 << k: rng.randint(-6, 6) * (12 // rng.randint(1, 4)) for k in range(sig.n)}
    return _reduced(sig, {m: n for m, n in num.items() if n}, 12)


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
    certificate of the whole algebra, made in the signature's first cell,
    gives every cell its fingerprint.  Where that pass fails, each cell
    runs its own, and fails or passes as it would alone."""
    report = SuiteReport("table4")

    @lru_cache(maxsize=1)
    def whole_algebra(sig: Signature) -> Certificate:
        return certify(all_blades(sig), geometric_row_op(sig))

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
    """verify_clifford_map over every grading of every Cl(p,q), p+q <= max_n."""
    report = SuiteReport("sigchange")
    for sig in signatures_up_to(max_n):
        for gr in all_gradings(sig):

            def cell(gr=gr):
                res = verify_clifford_map(gr)
                r, s = res.target
                return _cell_result(
                    f"-> Cl({r},{s})",
                    *(f"{c.name}: {c.detail}" for c in res.checks if not c.ok),
                )

            odd = ",".join(str(i) for i in gr.odd_indices)
            _timed(report, f"{sig.p},{sig.q},odd={odd}", cell)
    return report


def verify_core(max_n: int, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Base-product laws per signature: generator relations, associativity
    (the certificate over every blade pair), contraction adjointness on
    every blade triple, all exact at every n, and, on seeded random
    multivectors, involution laws and v a = v^a + v⌟a."""
    report = SuiteReport("core")
    for sig in signatures_up_to(max_n):
        rng = random.Random(seed * 10_000 + sig.p * 100 + sig.q)
        blades = all_blades(sig)

        def gen_cell(sig=sig):
            res = generator_relations(geometric_row_op(sig), sig.n, sig.neg_mask)
            return res.ok, res.detail

        def assoc_cell(sig=sig, blades=blades):
            verdict = certify(blades, geometric_row_op(sig)).verdict
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

        def involution_cell(sig=sig, rng=rng):
            bad = 0
            for _ in range(CORE_DRAWS):
                a = random_multivector(rng, sig)
                b = random_multivector(rng, sig)
                ab = geometric_product(a, b)
                if parity(parity(a)) != a or reversion(reversion(a)) != a:
                    bad += 1
                if parity(ab) != geometric_product(parity(a), parity(b)):
                    bad += 1
                if reversion(ab) != geometric_product(reversion(b), reversion(a)):
                    bad += 1
            return bad == 0, f"{bad} violations"

        def decomposition_cell(sig=sig, rng=rng):
            bad = 0
            for _ in range(CORE_DRAWS):
                v = random_vector(rng, sig)
                a = random_multivector(rng, sig)
                if geometric_product(v, a) != wedge(v, a) + left_contraction(v, a):
                    bad += 1
            return bad == 0, f"{bad} violations"

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


def run_suite(name: str, max_n: int | None = None, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Run one suite (or 'all'); max_n defaults per suite and is capped at
    the package dimension limit.  ``seed`` drives only the random
    multivectors of the core suite's involution and decomposition cells;
    no other cell draws."""
    if name == "all":
        combined = SuiteReport("all")
        for sub in _SUITE_FNS:
            rep = run_suite(sub, max_n, seed)
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
    return fn(n, seed) if name == "core" else fn(n)
