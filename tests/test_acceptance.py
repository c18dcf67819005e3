"""Acceptance suite: one test per criterion, at the stated scale, with
exact (tolerance-free) comparisons throughout.  Each test prints a
PASS line when it completes (visible with ``pytest -s``); the per-test
verdicts of ``pytest -v`` give the same one-line-per-criterion record.
"""

import itertools
import random
from fractions import Fraction

from cliffsig import (
    AlgebraClass,
    Multivector,
    Signature,
    Z2Grading,
    all_blades,
    classify_clifford,
    classify_even_part,
    classify_even_subalgebra,
    dimension_dichotomy_check,
    even_subalgebra_basis,
    find_wedge_counterexample,
    geometric_product,
    geometric_row_op,
    naive_antisymmetrization,
    tilt_product,
    vee_alpha,
    vee_alpha_via_split,
    vee_prime,
    vee_prime_blade_op,
    verify_clifford_map,
    wedge,
    weighted_antisymmetrization,
)
from cliffsig.grading import DimensionClass
from cliffsig.oracle import certify, oracle
from cliffsig.verify import (
    all_gradings,
    run_suite,
    signatures_up_to,
)

from oracles import random_vector, rows


def _five_term_multivector(rng, sig):
    """``random_multivector``'s draw with five seeded blades, not four."""
    coeffs = {}
    for _ in range(5):
        mask = rng.randrange(1 << sig.n)
        coeffs[mask] = coeffs.get(mask, 0) + Fraction(rng.randint(-8, 8), rng.randint(1, 6))
    return Multivector(sig, coeffs)


def _report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: PASS{suffix}")


def test_criterion_01_full_algebra_classification():
    # oracle fingerprint of (carrier, geometric product) == reference
    # fingerprint of the closed-form class, after the oracle's
    # associativity pass, for all 28 algebras p+q <= 6
    count = 0
    for sig in signatures_up_to(6):
        cls = classify_clifford(sig.p, sig.q)
        verdict = oracle(all_blades(sig), geometric_row_op(sig), cls)
        assert verdict.ok, (sig, verdict.problem)
        count += 1
    assert count == 28
    _report(1, "full-algebra classification", f"{count} algebras")


def test_criterion_02_even_part_classification():
    count = 0
    for sig in signatures_up_to(6):
        if sig.n < 1:
            continue
        cls = classify_even_part(sig.p, sig.q)
        if sig.p >= 1:
            assert cls == classify_clifford(sig.q, sig.p - 1), sig
        masks = [m for m in all_blades(sig) if not bin(m).count("1") & 1]
        verdict = oracle(masks, geometric_row_op(sig), cls)
        assert verdict.ok, (sig, verdict.problem)
        count += 1
    _report(2, "even-part classification", f"{count} algebras")


def test_criterion_03_graded_even_subalgebra_sweep():
    report = run_suite("table4", 6)
    assert len(report.cells) == 210
    assert report.violations == 0, [c.key for c in report.cells if not c.ok]
    # the named instances
    cl13 = {
        classify_even_subalgebra(1, 3, p0, q0)
        for p0 in range(2)
        for q0 in range(4)
        if (p0, q0) != (1, 3)
    }
    assert cl13 == {AlgebraClass.simple(2, "C"), AlgebraClass.of("H", "H")}
    cl30 = {classify_even_subalgebra(3, 0, p0, 0) for p0 in range(3)}
    assert cl30 == {
        AlgebraClass.of("H"),
        AlgebraClass.simple(2, "R"),
        AlgebraClass.of("C", "C"),
    }
    _report(3, "graded even-subalgebra sweep", "210 cells")


def test_criterion_04_fourfold_periodicity():
    # within each (p,q), nontrivial cells with equal (p0-q0) mod 4 get the
    # same class (the trivial grading lies outside the half-dimension
    # table and is excluded)
    cells = 0
    for sig in signatures_up_to(6):
        by_residue: dict[int, AlgebraClass] = {}
        for p0 in range(sig.p + 1):
            for q0 in range(sig.q + 1):
                if (p0, q0) == (sig.p, sig.q):
                    continue
                cls = classify_even_subalgebra(sig.p, sig.q, p0, q0)
                assert by_residue.setdefault((p0 - q0) % 4, cls) == cls, (sig, p0, q0)
                cells += 1
    _report(4, "mod-4 periodicity in p0-q0", f"{cells} nontrivial cells")


def test_criterion_05_dimension_dichotomy():
    gradings = 0
    for sig in signatures_up_to(6):
        for gr in all_gradings(sig):
            size = len(even_subalgebra_basis(gr))
            if gr.is_trivial:
                assert dimension_dichotomy_check(gr) is DimensionClass.TRIVIAL
                assert size == 1 << sig.n
            else:
                assert dimension_dichotomy_check(gr) is DimensionClass.HALF
                assert size == 1 << (sig.n - 1)
            gradings += 1
    _report(5, "dimension dichotomy", f"{gradings} gradings")


def test_criterion_06_signature_change_sweep():
    checked = 0
    for sig in signatures_up_to(5):
        for gr in all_gradings(sig):
            rep = verify_clifford_map(gr)
            assert rep.ok, (str(gr), [(c.name, c.detail) for c in rep.checks if not c.ok])
            checked += 1
    # the two named signature changes
    sig = Signature(1, 3)
    assert verify_clifford_map(Z2Grading.usual(sig)).target == (3, 1)
    assert verify_clifford_map(
        Z2Grading.from_odd_indices(sig, [2, 3, 4])
    ).target == (4, 0)
    _report(6, "signature-change Clifford maps", f"{checked} gradings")


def test_criterion_07_split_form_identity():
    # v ∨ a = v0 a + parity(a) v1: vee_alpha vs split form, exhaustive over
    # (basis vector, blade) pairs for every grading with n <= 5
    exhaustive = 0
    for sig in signatures_up_to(5):
        blades = all_blades(sig)
        for gr in all_gradings(sig):
            for i in range(1, sig.n + 1):
                v = Multivector.basis_vector(sig, i)
                for mask in blades:
                    a = Multivector.blade(sig, mask)
                    assert vee_alpha_via_split(v, a, gr) == vee_alpha(v, a, gr)
                    exhaustive += 1
    # and >= 1000 random (vector, blade...multivector) pairs up to n = 8
    rng = random.Random(2024)
    randomized = 0
    for p, q in [(3, 3), (5, 2), (4, 4)]:
        sig = Signature(p, q)
        for _ in range(400):
            gr = Z2Grading(sig, rng.randrange(1 << sig.n))
            v = random_vector(rng, sig)
            a = _five_term_multivector(rng, sig)
            assert vee_alpha_via_split(v, a, gr) == vee_alpha(v, a, gr)
            randomized += 1
    assert randomized >= 1000
    _report(7, "split-form identity", f"{exhaustive} exhaustive + {randomized} random")


def test_criterion_08_lounesto_tilt():
    pairs = 0
    for sig in signatures_up_to(6):
        gr = Z2Grading.usual(sig)
        for ma, mb in itertools.product(all_blades(sig), repeat=2):
            a = Multivector.blade(sig, ma)
            b = Multivector.blade(sig, mb)
            assert tilt_product(a, b) == vee_alpha(a, b, gr)
            pairs += 1
    sig = Signature(1, 3)
    squares = [
        tilt_product(
            Multivector.basis_vector(sig, i), Multivector.basis_vector(sig, i)
        ).scalar_part()
        for i in range(1, 5)
    ]
    assert squares == [-1, 1, 1, 1]
    _report(8, "Lounesto tilt", f"{pairs} blade pairs; squares +1,-1,-1,-1 -> -1,+1,+1,+1")


def test_criterion_09_vee_prime_suite():
    # associativity and parity closure, exhaustive for n <= 4;
    # associativity runs the oracle's bicharacter certificate on
    # vee_prime's blade sign function, which test_oracle ties to vee_prime
    # cell by cell
    pairs = 0
    for sig in signatures_up_to(4):
        blades = all_blades(sig)
        mvs = [Multivector.blade(sig, m) for m in blades]
        for gr in all_gradings(sig):
            for a, b in itertools.product(mvs, repeat=2):
                ab = vee_prime(a, b, gr)
                pa = gr.blade_parity(next(iter(a.terms)))
                pb = gr.blade_parity(next(iter(b.terms)))
                assert all(gr.blade_parity(m) == (pa + pb) & 1 for m in ab.terms)
            verdict = certify(blades, rows(vee_prime_blade_op(gr))).verdict
            assert verdict.associative, (gr, verdict.associativity)
            pairs += len(blades) ** 2
    # the parity-weighted wedge identity holds for all tested vectors
    rng = random.Random(9)
    for sig in signatures_up_to(3):
        for gr in all_gradings(sig):
            for _ in range(10):
                x, y = random_vector(rng, sig), random_vector(rng, sig)
                assert weighted_antisymmetrization(x, y, gr) == wedge(x, y)
    # a concrete naive-antisymmetrization counterexample for a mixed
    # grading, and none under the all-odd (usual) grading
    mixed = Z2Grading.from_odd_indices(Signature(2, 0), [1])
    witness = find_wedge_counterexample(mixed)
    assert witness is not None
    assert witness.exterior != witness.antisymmetrized
    assert naive_antisymmetrization(witness.x, witness.y, mixed) == witness.antisymmetrized
    assert find_wedge_counterexample(Z2Grading.usual(Signature(1, 3))) is None
    _report(
        9,
        "vee-prime suite",
        f"{pairs} certified blade pairs; witness x={witness.x}, y={witness.y}, "
        f"wedge={witness.exterior}, naive={witness.antisymmetrized}",
    )


def test_criterion_10_core_property_suite():
    report = run_suite("core", 8)
    assert report.violations == 0, [c.key for c in report.cells if not c.ok]
    _report(10, "core property suite", f"{len(report.cells)} cells up to n=8")
