"""Verification sweep plumbing: report shape, determinism, and the
randomized-subset re-check."""

import json
from fractions import Fraction as F

import pytest

from cliffsig.oracle import oracle
from cliffsig.sigchange import random_vector
from cliffsig.verify import (
    SUITES,
    canonical_odd_mask,
    random_multivector,
    run_suite,
    signatures_up_to,
    verify_table4,
)
from cliffsig import (
    Signature,
    Z2Grading,
    blade_from_indices,
    classify_even_subalgebra,
    even_subalgebra_basis,
    geometric_blade_op,
    geometric_row_op,
)
import random

from oracles import rows


def test_signature_enumeration():
    sigs = list(signatures_up_to(2))
    assert [(s.p, s.q) for s in sigs] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_canonical_odd_mask_counts():
    sig = Signature(2, 3)
    for p1 in range(3):
        for q1 in range(4):
            gr = Z2Grading(sig, canonical_odd_mask(sig, p1, q1))
            assert gr.counts() == (2 - p1, 3 - q1, p1, q1)


def random_odd_mask(rng: random.Random, sig: Signature, p1: int, q1: int) -> int:
    """A random odd set of p1 positive and q1 negative generators."""
    pos = rng.sample(range(1, sig.p + 1), p1)
    neg = rng.sample(range(sig.p + 1, sig.n + 1), q1)
    return blade_from_indices(pos + neg)


def test_random_odd_mask_counts():
    rng = random.Random(0)
    sig = Signature(3, 2)
    for _ in range(50):
        p1, q1 = rng.randint(0, 3), rng.randint(0, 2)
        gr = Z2Grading(sig, random_odd_mask(rng, sig, p1, q1))
        assert gr.counts() == (3 - p1, 2 - q1, p1, q1)


def test_random_draws_are_frozen():
    # the sampled core and sigchange cells check these exact multivectors;
    # a change of representation must not change what a seed draws
    rng = random.Random(7)
    sig = Signature(2, 1)
    assert [dict(random_multivector(rng, sig).terms) for _ in range(3)] == [
        {5: F(-1), 0: F(14, 5), 1: F(3, 5)},
        {0: F(-3, 2), 6: F(-3), 1: F(29, 6)},  # e1 drawn twice: 5 - 1/6
        {0: F(4), 3: F(-7, 5), 2: F(-3, 4)},
    ]
    assert [dict(random_vector(rng, sig).terms) for _ in range(2)] == [
        {1: F(-1), 2: F(-5, 2), 4: F(-1)},
        {1: F(2), 2: F(3), 4: F(3, 2)},
    ]
    # the first draw of the core suite's Cl(3,3) associativity cell, seed 0
    rng = random.Random(0 * 10_000 + 3 * 100 + 3)
    assert dict(random_multivector(rng, Signature(3, 3)).terms) == {
        4: F(-1, 6), 24: F(-6, 5), 33: F(2), 20: F(5, 4)
    }


def test_report_json_schema():
    rep = run_suite("table4", 2)
    data = json.loads(rep.to_json())
    assert data["suite"] == "table4"
    assert data["violations"] == 0
    assert isinstance(data["cells"], list) and data["cells"]
    for cell in data["cells"]:
        assert set(cell) == {"key", "pass", "detail", "seconds"}
        assert cell["pass"] is True
    keys = [c["key"] for c in data["cells"]]
    assert "1,1,0,0" in keys and "2,0,2,0" in keys


def test_table4_randomized_subsets_agree():
    # any odd set with the same per-sign counts is isometric to the
    # canonical one, so a random one passes the oracle against the same class
    rng = random.Random(1234)
    for sig in signatures_up_to(3):
        for p0 in range(sig.p + 1):
            for q0 in range(sig.q + 1):
                p1, q1 = sig.p - p0, sig.q - q0
                gr = Z2Grading(sig, random_odd_mask(rng, sig, p1, q1))
                assert gr.counts() == (p0, q0, p1, q1)
                cls = classify_even_subalgebra(sig.p, sig.q, p0, q0)
                verdict = oracle(even_subalgebra_basis(gr), geometric_row_op(sig), cls)
                assert verdict.ok, (gr, verdict.problem)


def test_suite_determinism():
    a = run_suite("sigchange", 2, seed=7)
    b = run_suite("sigchange", 2, seed=7)
    assert [(c.key, c.ok, c.detail) for c in a.cells] == [
        (c.key, c.ok, c.detail) for c in b.cells
    ]


def test_core_suite_small():
    rep = run_suite("core", 3)
    assert rep.violations == 0
    names = {c.key.split(":", 1)[1] for c in rep.cells}
    assert names == {
        "generators",
        "associativity",
        "adjointness",
        "involutions",
        "decomposition",
    }


def test_all_suite_prefixes_keys():
    rep = run_suite("all", 1)
    assert rep.suite == "all"
    prefixes = {c.key.split("/", 1)[0] for c in rep.cells}
    assert prefixes == set(SUITES) - {"all"}
    assert rep.violations == 0


def test_unknown_suite_and_bad_max_n():
    with pytest.raises(ValueError):
        run_suite("nope", 2)
    with pytest.raises(ValueError):
        run_suite("table4", 99)


def test_table4_reports_grading_count_mismatch(monkeypatch):
    # an odd mask with the wrong per-sign counts is a failing cell, not a crash
    import cliffsig.verify as verify

    monkeypatch.setattr(verify, "canonical_odd_mask", lambda sig, p1, q1: 0)
    report = verify_table4(max_n=1)
    failing = {c.key: c.detail for c in report.cells if not c.ok}
    assert sorted(failing) == ["0,1,0,0", "1,0,0,0"]
    assert failing["1,0,0,0"] == (
        "Cl0 ~ R; odd mask 0b0 has counts (1, 0, 0, 0), expected (0, 0, 1, 0)"
    )


def test_core_associativity_coverage():
    # exact through the oracle's bicharacter certificate at every n
    rep = run_suite("core", 5)
    details = {c.key: c.detail for c in rep.cells if c.key.endswith(":associativity")}
    assert details["2,2:associativity"] == "bicharacter certificate, 256 pairs, 0 violations"
    assert details["1,0:associativity"] == "bicharacter certificate, 4 pairs, 0 violations"
    assert details["3,2:associativity"] == "bicharacter certificate, 1024 pairs, 0 violations"


def test_core_associativity_names_first_blade_triple(monkeypatch):
    # 1 * e1 = -e1 breaks associativity first at (1, 1, e1):
    # (1 1) e1 = -e1 but 1 (1 e1) = e1.  Every cell with n >= 1 reads the
    # product through the certificate and fails: n <= 4 names that triple,
    # and n = 5, which searches no triples at dim 32, the first pair off
    # the bicharacter, (1, e1)
    import cliffsig.verify as verify

    def twisted(sig):
        op = geometric_blade_op(sig)

        def blade_op(x, y):
            sign, mask = op(x, y)
            return (-sign, mask) if (x, y) == (0, 0b1) else (sign, mask)

        return rows(blade_op)

    monkeypatch.setattr(verify, "geometric_row_op", twisted)
    rep = verify.verify_core(max_n=5)
    cells = {c.key: c for c in rep.cells if c.key.endswith(":associativity")}
    assert len(cells) == 21 and cells.pop("0,0:associativity").ok
    for key, cell in cells.items():
        n = sum(map(int, key.split(":")[0].split(",")))
        assert not cell.ok, key
        assert cell.detail == (
            "exhaustive triples, first violation (1, 1, e1)"
            if n <= 4
            else "bicharacter certificate, 1024 pairs, first violation (1, e1)"
        ), key


def test_table4_product_leaving_the_span_fails_its_cell(monkeypatch):
    # 1 * 1 lands on a blade outside every basis: each cell reports the
    # oracle's NotClosed message and the sweep still runs to the end
    import cliffsig.verify as verify

    def leaky(sig):
        op = geometric_blade_op(sig)

        def blade_op(x, y):
            sign, mask = op(x, y)
            return (sign, 1 << sig.n) if x == y == 0 else (sign, mask)

        return rows(blade_op)

    monkeypatch.setattr(verify, "geometric_row_op", leaky)
    report = verify_table4(max_n=1)
    assert len(report.cells) == 5 and report.violations == 5
    for c in report.cells:
        assert c.detail.endswith("; product of basis elements 0 and 0 leaves the span")


def test_table4_failure_is_attributed_to_its_cells(monkeypatch):
    # e1 e2 = -e12 breaks the whole algebra's certificate wherever both
    # generators appear, so each cell of such a signature runs its own
    # pass: the report equals a sweep with no shared certificate, and the
    # cells whose even subalgebra holds no e1 e2 pair still pass
    import cliffsig.verify as verify

    def twisted(sig):
        op = geometric_blade_op(sig)

        def blade_op(x, y):
            sign, mask = op(x, y)
            return (-sign, mask) if (x, y) == (0b01, 0b10) else (sign, mask)

        return rows(blade_op)

    monkeypatch.setattr(verify, "geometric_row_op", twisted)
    shared = verify_table4(max_n=2)
    monkeypatch.setattr(verify, "certify", lambda masks, row_op: None)
    per_basis = verify_table4(max_n=2)
    assert [(c.key, c.ok, c.detail) for c in shared.cells] == [
        (c.key, c.ok, c.detail) for c in per_basis.cells
    ]
    verdicts = {c.key: c.ok for c in shared.cells if c.key.startswith("2,0,")}
    assert verdicts == {"2,0,0,0": True, "2,0,1,0": True, "2,0,2,0": False}
    assert shared.violations == 3


def _core_detail(monkeypatch, key, name=None, pair=None, fault=None):
    """The detail of the core cell ``key`` at n <= 5, with the kernel
    ``name`` altered by ``fault(sign, mask)`` on the one pair ``pair``."""
    from cliffsig import kernels
    from cliffsig.verify import verify_core

    if name is not None:
        base = getattr(kernels, name)

        def kernel(x, y, *neg):
            sign, mask = base(x, y, *neg)
            return fault(sign, mask) if (x, y) == pair else (sign, mask)

        monkeypatch.setattr(kernels, name, kernel)
    cells = {c.key: c for c in verify_core(max_n=5).cells}
    assert cells[key].ok == (name is None), cells[key].detail
    return cells[key].detail


def test_core_adjointness_reads_every_triple(monkeypatch):
    # the identities are decided by pairs, so the cell covers all
    # 32**3 blade triples of Cl(3,2) at once
    assert _core_detail(monkeypatch, "3,2:adjointness") == "32768 triples, 0 violations"


# Each fault below sits on a pair that the 300 triples once sampled by this
# cell at seed 0 never read; the exact check names its triple.
E1, E2, E3, E4, E5 = 0b1, 0b10, 0b100, 0b1000, 0b10000


def test_core_adjointness_catches_a_leaking_left_contraction(monkeypatch):
    # e1 ⌟ e2^e4 is 0; made e1^e2^e4, g(e1 ⌟ e2^e4, e1^e2^e4) = 1 while
    # e1 ∧ e1^e2^e4 = 0
    detail = _core_detail(
        monkeypatch, "3,2:adjointness", "blade_left_contract", (E1, E2 | E4),
        lambda sign, mask: (1, E1 | E2 | E4),
    )
    assert detail == "32768 triples, 1 violations; first (e1, e2^e4, e1^e2^e4)"


def test_core_adjointness_catches_a_flipped_left_contraction(monkeypatch):
    detail = _core_detail(
        monkeypatch, "3,2:adjointness", "blade_left_contract", (E1, E1 | E4),
        lambda sign, mask: (-sign, mask),
    )
    assert detail == "32768 triples, 1 violations; first (e1, e1^e4, e4)"


def test_core_adjointness_catches_a_wedge_on_the_wrong_blade(monkeypatch):
    # e1 ∧ e2^e3 sent to e1^e2 breaks g(b, ã∧c) for a = e1 and g(b, c∧ã)
    # for a = e2^e3, each at b = e1^e2^e3 and at b = e1^e2
    detail = _core_detail(
        monkeypatch, "3,2:adjointness", "blade_wedge", (E1, E2 | E3),
        lambda sign, mask: (sign, mask ^ E3),
    )
    assert detail == "32768 triples, 4 violations; first (e1, e1^e2, e2^e3)"


def test_core_adjointness_catches_a_flipped_right_contraction(monkeypatch):
    detail = _core_detail(
        monkeypatch, "3,2:adjointness", "blade_right_contract", (E1 | E2 | E5, E2 | E5),
        lambda sign, mask: (-sign, mask),
    )
    assert detail == "32768 triples, 1 violations; first (e2^e5, e1^e2^e5, e1)"


def test_core_generators_name_the_first_pair(monkeypatch):
    # e2 e1 = +e1^e2 makes e1 e2 + e2 e1 = 2 e1^e2, not 0: the cell reads
    # the geometric product's rows and names the pair
    import cliffsig.verify as verify

    def commuting(sig):
        op = geometric_blade_op(sig)

        def blade_op(x, y):
            sign, mask = op(x, y)
            return (-sign, mask) if (x, y) == (E2, E1) else (sign, mask)

        return rows(blade_op)

    monkeypatch.setattr(verify, "geometric_row_op", commuting)
    cells = {c.key: c for c in verify.verify_core(max_n=4).cells}
    assert cells["1,0:generators"].detail == "1 pairs, 0 violations"
    assert not cells["2,2:generators"].ok
    assert cells["2,2:generators"].detail == "10 pairs, 1 violations; first (e1, e2)"
