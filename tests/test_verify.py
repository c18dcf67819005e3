"""Verification sweep plumbing: report shape, determinism, and the
randomized-subset re-check."""

import json
from fractions import Fraction as F

import pytest

from cliffsig import kernels
from cliffsig.oracle import oracle
from cliffsig.verify import (
    SUITES,
    canonical_odd_mask,
    run_suite,
    signatures_up_to,
)
from cliffsig import (
    Multivector,
    Signature,
    Z2Grading,
    blade_from_indices,
    classify_clifford,
    classify_even_subalgebra,
    even_subalgebra_basis,
    geometric_row_op,
)
import random

from oracles import geometric_pair_op, random_multivector, random_vector, rows


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
    rng = random.Random(303)
    assert dict(random_multivector(rng, Signature(3, 3)).terms) == {
        4: F(-1, 6), 24: F(-6, 5), 33: F(2), 20: F(5, 4)
    }


def test_report_json_schema():
    rep = run_suite("table4", 2)
    data = json.loads(json.dumps(rep.to_json_dict()))
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
                _, problem = oracle(even_subalgebra_basis(gr), geometric_row_op(sig), cls)
                assert not problem, (gr, problem)


def test_suite_determinism():
    a = run_suite("sigchange", 2)
    b = run_suite("sigchange", 2)
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


def test_every_cell_returns_one_check_record():
    # a cell's outcome has one shape, oracle.CheckResult, which run_suite
    # reads into its report; the core suite's associativity cell returns
    # the shared certificate's own verdict, built by certify alone
    import cliffsig.verify as verify
    from cliffsig.oracle import CheckResult

    shared, count = {}, 0
    for sig in signatures_up_to(3):
        for name, suite in verify._SUITE_FNS.items():
            for key, cell in suite(sig, shared):
                check = cell()
                assert type(check) is CheckResult, (name, key, check)
                if name == "core" and key.endswith(":associativity"):
                    assert check is verify.whole_algebra(sig, shared).verdict, key
                count += 1
    assert count == len(run_suite("all", 3).cells) == 153


def test_all_suite_prefixes_keys():
    rep = run_suite("all", 1)
    assert rep.suite == "all"
    prefixes = {c.key.split("/", 1)[0] for c in rep.cells}
    assert prefixes == set(SUITES) - {"all"}
    assert rep.violations == 0


def _joined(max_n):
    """The five standalone runs, each key prefixed with its suite, as
    (key, pass, detail)."""
    return [
        (f"{name}/{c.key}", c.ok, c.detail)
        for name in SUITES[:-1]
        for c in run_suite(name, max_n).cells
    ]


@pytest.mark.parametrize("max_n", [0, 1, 2, 3, 4, 5, None])
def test_all_equals_the_standalone_suites(max_n):
    # one walk over the signatures runs every suite's cells at each; the
    # report still lists each suite's cells together, in SUITES order
    rep = run_suite("all", max_n)
    assert [(c.key, c.ok, c.detail) for c in rep.cells] == _joined(max_n)


def test_all_certifies_each_signature_once(monkeypatch):
    # table1, table4 and core each certify the whole algebra once per
    # signature when run alone (15 signatures at n <= 4), table2 certifies
    # the even part (14, none at n = 0) and sigchange one ∨ per (n, mask)
    # (31).  Within all, the first three share one pass per signature:
    # 90 -> 60 passes at n <= 4, 238 -> 182 at the default n <= 6 (28
    # signatures, sigchange 127)
    import cliffsig.oracle as oracle

    calls = []
    honest = oracle._read_bicharacter

    def counting(masks, row_op, frame=None):
        calls.append(len(masks))
        return honest(masks, row_op, frame)

    monkeypatch.setattr(oracle, "_read_bicharacter", counting)
    passes = {}
    for name, max_n in [*((name, 4) for name in SUITES), ("all", None)]:
        calls.clear()
        assert run_suite(name, max_n).ok, name
        passes[name, max_n] = len(calls)
    assert passes == {
        ("table1", 4): 15,
        ("table2", 4): 14,
        ("table4", 4): 15,
        ("sigchange", 4): 31,
        ("core", 4): 15,
        ("all", 4): 60,
        ("all", None): 182,
    }


def test_shared_results_of_a_signature_go_when_the_walk_leaves_it(monkeypatch):
    # run_suite's dict keeps a signature's certificate and definition rows,
    # keyed (tag, p, q), only while its cells run, and the frame of the 2^n
    # blades, keyed ("frame", n), until the walk leaves n; the rest of the
    # dict is sigchange's ∨ checks, keyed (n, neg ^ odd), kept for the
    # whole run
    import cliffsig.verify as verify

    tags = set()

    def watched(suite):
        def cells(sig, shared):
            for key, cell in suite(sig, shared):
                for k in shared:
                    if k[0] == "frame":
                        assert k[1:] == (sig.n,), (k, sig)
                        tags.add(k[0])
                    elif isinstance(k[0], str):
                        assert k[1:] == (sig.p, sig.q), (k, sig)
                        tags.add(k[0])
                    else:
                        assert len(k) == 2 and k[0] <= sig.n, (k, sig)
                yield key, cell

        return cells

    fns = {name: watched(fn) for name, fn in verify._SUITE_FNS.items()}
    monkeypatch.setattr(verify, "_SUITE_FNS", fns)
    assert run_suite("all", 4).ok
    assert tags == {"whole", "rows", "frame"}


def test_unknown_suite_and_bad_max_n():
    with pytest.raises(ValueError):
        run_suite("nope", 2)
    with pytest.raises(ValueError):
        run_suite("table4", 99)


def test_table4_reports_grading_count_mismatch(monkeypatch):
    # an odd mask with the wrong per-sign counts is a failing cell, not a crash
    import cliffsig.verify as verify

    monkeypatch.setattr(verify, "canonical_odd_mask", lambda sig, p1, q1: 0)
    report = run_suite("table4", 1)
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
        op = geometric_pair_op(sig)

        def blade_op(x, y):
            sign, mask = op(x, y)
            return (-sign, mask) if (x, y) == (0, 0b1) else (sign, mask)

        return rows(blade_op)

    monkeypatch.setattr(verify, "geometric_row_op", twisted)
    rep = run_suite("core", 5)
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
        op = geometric_pair_op(sig)

        def blade_op(x, y):
            sign, mask = op(x, y)
            return (sign, 1 << sig.n) if x == y == 0 else (sign, mask)

        return rows(blade_op)

    monkeypatch.setattr(verify, "geometric_row_op", leaky)
    report = run_suite("table4", 1)
    assert len(report.cells) == 5 and report.violations == 5
    for c in report.cells:
        assert c.detail.endswith("; product (1, 1) leaves the span")


def test_table4_failure_is_attributed_to_its_cells(monkeypatch):
    # e1 e2 = -e12 breaks the whole algebra's certificate wherever both
    # generators appear, so each cell of such a signature runs its own
    # pass: the report equals a sweep with no shared certificate, and the
    # cells whose even subalgebra holds no e1 e2 pair still pass
    import cliffsig.verify as verify

    def twisted(sig):
        op = geometric_pair_op(sig)

        def blade_op(x, y):
            sign, mask = op(x, y)
            return (-sign, mask) if (x, y) == (0b01, 0b10) else (sign, mask)

        return rows(blade_op)

    monkeypatch.setattr(verify, "geometric_row_op", twisted)
    shared = run_suite("table4", 2)
    monkeypatch.setattr(verify, "certify", lambda masks, row_op, frame=None: None)
    per_basis = run_suite("table4", 2)
    assert [(c.key, c.ok, c.detail) for c in shared.cells] == [
        (c.key, c.ok, c.detail) for c in per_basis.cells
    ]
    verdicts = {c.key: c.ok for c in shared.cells if c.key.startswith("2,0,")}
    assert verdicts == {"2,0,0,0": True, "2,0,1,0": True, "2,0,2,0": False}
    assert shared.violations == 3


def _core_detail(monkeypatch, key, name=None, a=None, side=0, b=None, fault=None):
    """The detail of the core cell ``key`` at n <= 5, with the row kernel
    ``name`` altered on row ``side`` of blade ``a``: at the position of
    blade ``b`` the product's sign s, -1, 0 or 1, becomes ``fault(s)``.
    The position is read from the view's planes, so that a view with its
    planes flipped finds it too."""
    from cliffsig import kernels

    if name is not None:
        base = getattr(kernels, name)

        def kernel(x, cols, *neg):
            pair = list(base(x, cols, *neg))
            planes = cols[1]
            for j in range(1 << len(planes)) if x == a else ():
                if sum((plane >> j & 1) << i for i, plane in enumerate(planes)) == b:
                    sign, bit = fault(kernels.row_sign(pair[side], j)), 1 << j
                    row_neg, zero = pair[side]
                    row_neg, zero = row_neg & ~bit, zero & ~bit
                    pair[side] = (row_neg | bit * (sign < 0), zero | bit * (sign == 0))
            return tuple(pair)

        monkeypatch.setattr(kernels, name, kernel)
    cells = {c.key: c for c in run_suite("core", 5).cells}
    assert cells[key].ok == (name is None), cells[key].detail
    return cells[key].detail


def test_core_adjointness_reads_every_triple(monkeypatch):
    # the identities are decided by rows, so the cell covers all 32**3
    # blade triples of Cl(3,2) at once
    assert _core_detail(monkeypatch, "3,2:adjointness") == "32768 triples, 0 violations"


# Each fault below is on one row position, and the cell names its triple.
# A row carries no masks: a nonzero product at the position of b lies on
# a ^ b.
E1, E2, E3, E4, E5 = 0b1, 0b10, 0b100, 0b1000, 0b10000


def test_core_adjointness_catches_a_leaking_left_contraction(monkeypatch):
    # e1 ⌟ e2^e4 is 0; made e1^e2^e4, g(e1 ⌟ e2^e4, e1^e2^e4) = 1 while
    # e1 ∧ e1^e2^e4 = 0
    detail = _core_detail(
        monkeypatch, "3,2:adjointness", "contraction_rows", E1, 0, E2 | E4,
        lambda sign: 1,
    )
    assert detail == "32768 triples, 1 violations; first (e1, e2^e4, e1^e2^e4)"


def test_core_adjointness_catches_a_flipped_left_contraction(monkeypatch):
    detail = _core_detail(
        monkeypatch, "3,2:adjointness", "contraction_rows", E1, 0, E1 | E4,
        lambda sign: -sign,
    )
    assert detail == "32768 triples, 1 violations; first (e1, e1^e4, e4)"


def test_core_adjointness_catches_a_flipped_right_contraction(monkeypatch):
    # row 1 of a = e2^e5 is x ⌞ a; flipped at x = e1^e2^e5
    detail = _core_detail(
        monkeypatch, "3,2:adjointness", "contraction_rows", E2 | E5, 1, E1 | E2 | E5,
        lambda sign: -sign,
    )
    assert detail == "32768 triples, 1 violations; first (e2^e5, e1^e2^e5, e1)"


def test_core_adjointness_catches_a_wedge_that_fires_on_overlap(monkeypatch):
    # e1 ∧ e1^e3 is 0; made +e3, it breaks g(b, ã∧c) at c = e1^e3, which
    # the cell reads at b = e1 ^ c = e3
    detail = _core_detail(
        monkeypatch, "3,2:adjointness", "wedge_rows", E1, 0, E1 | E3,
        lambda sign: 1,
    )
    assert detail == "32768 triples, 1 violations; first (e1, e3, e1^e3)"


def test_core_adjointness_counts_its_witnesses_in_flat_memory(monkeypatch):
    # the fault above on every pair: a wedge that never vanishes breaks
    # the identities at 58975 of Cl(4,4)'s triples.  The cell counts them
    # off its rows and decodes only the first failing row, so it keeps no
    # list of witnesses, whose size grows with the fault, not the algebra
    import tracemalloc

    from cliffsig import kernels
    import cliffsig.verify as verify

    honest = kernels.wedge_rows

    def never_vanishing(a, cols):
        (neg, _), right = honest(a, cols)
        return (neg, 0), right

    monkeypatch.setattr(kernels, "wedge_rows", never_vanishing)
    cell = dict(verify.verify_core(Signature(4, 4), {}))["4,4:adjointness"]
    tracemalloc.start()
    try:
        _, ok, detail = cell()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not ok and detail == "16777216 triples, 58975 violations; first (e1, 1, e1)"
    assert peak < 1 << 20, peak


def test_core_adjointness_names_a_witness_past_the_last_blade(monkeypatch):
    # a contraction row that vanishes at a position past the last blade
    # fails where the wedge's row does not.  That bit is a violation too:
    # the witness is the lowest set bit of the failing row, position b
    # holds blade b, and position 4 of Cl(1,1)'s view reads as e3.  The
    # witness is read off the bit, not searched for among the blades, so
    # the run reports every cell
    from cliffsig import kernels

    honest = kernels.contraction_rows

    def leaky(a, cols, neg):
        bit = 1 << len(cols[0])
        return tuple((row_neg, zero | bit) for row_neg, zero in honest(a, cols, neg))

    monkeypatch.setattr(kernels, "contraction_rows", leaky)
    failing = [c for c in run_suite("core", 3).cells if not c.ok]
    assert len(failing) == 10, [c.key for c in failing]
    cells = {c.key: c.detail for c in failing}
    assert all(key.endswith(":adjointness") for key in cells), cells
    assert cells["1,1:adjointness"] == "64 triples, 4 violations; first (1, e3, e3)"


def test_table2_names_each_identity_it_breaks(monkeypatch):
    # Cl+(p,q) ~ Cl(q,p-1) ~ Cl(p,q-1): an even-part class that answers
    # Cl(p,q) breaks each identity whose side exists, and the fingerprint
    import cliffsig.verify as verify

    monkeypatch.setattr(verify, "classify_even_part", classify_clifford)
    cells = {c.key: c.detail for c in run_suite("table2", 3).cells if not c.ok}
    assert len(cells) == 9
    head, *problems = cells["2,1"].split("; ")
    assert head == f"Cl+(2,1) ~ {classify_clifford(2, 1)}"
    assert problems[:2] == ["!= Cl(1,1)", "!= Cl(2,0)"]
    assert problems[2].startswith("oracle ") and len(problems) == 3
    assert cells["0,3"].split("; ")[1:2] == ["!= Cl(0,2)"]
    assert cells["3,0"].split("; ")[1:2] == ["!= Cl(0,2)"]


def test_core_generators_name_the_first_pair(monkeypatch):
    # e2 e1 = +e1^e2 makes e1 e2 + e2 e1 = 2 e1^e2, not 0: the cell reads
    # the geometric product's rows and names the pair
    import cliffsig.verify as verify

    def commuting(sig):
        op = geometric_pair_op(sig)

        def blade_op(x, y):
            sign, mask = op(x, y)
            return (-sign, mask) if (x, y) == (E2, E1) else (sign, mask)

        return rows(blade_op)

    monkeypatch.setattr(verify, "geometric_row_op", commuting)
    cells = {c.key: c for c in run_suite("core", 4).cells}
    assert cells["1,0:generators"].detail == "1 pairs, 0 violations"
    assert not cells["2,2:generators"].ok
    assert cells["2,2:generators"].detail == "10 pairs, 1 violations; first (e1, e2)"


def _failing_core_cells(monkeypatch, module, name, replacement):
    """Cl(3,2)'s failing core cells at n <= 5, name -> detail, with
    ``module.name`` replaced by ``replacement(honest)``."""
    import cliffsig.verify as verify

    monkeypatch.setattr(module, name, replacement(getattr(module, name)))
    cells = run_suite("core", 5).cells
    return {c.key.split(":")[1]: c.detail for c in cells if c.key.startswith("3,2:") and not c.ok}


def _sign_flipped_on(blade):
    """An involution made from ``honest`` whose sign on ``blade`` is
    flipped: still ± each blade, so only the law can fail."""

    def alter(honest):
        def law(x):
            y = honest(x)
            c = y.terms.get(blade)
            return y - Multivector.blade(x.sig, blade, 2 * c) if c else y

        return law

    return alter


def _kernel_flipped_on(pair):
    """A kernel made from ``honest`` whose sign on the blade pair ``pair``
    is flipped."""

    def alter(honest):
        def kernel(x, y, *neg):
            sign, mask = honest(x, y, *neg)
            return (-sign, mask) if (x, y) == pair else (sign, mask)

        return kernel

    return alter


# Every involutions and decomposition fault below was counted by the cells'
# seeded draws before they became exact, except the flipped geometric row,
# which those draws never read; the exact cells name a witness pair.
def test_core_involutions_catch_a_flipped_reversion_sign(monkeypatch):
    # rev(e1^e2) = +e1^e2: rev(e1 e2) = rev(e2) rev(e1) = e2 e1 = -e1^e2
    # no longer holds, first at the pair (e1, e2)
    import cliffsig.verify as verify

    failing = _failing_core_cells(monkeypatch, verify, "reversion", _sign_flipped_on(E1 | E2))
    assert failing == {
        "involutions": "32 blades: parity a character, reversion not a quadratic "
        "refinement of the commutation bicharacter, first (e1, e2)"
    }


def test_core_involutions_catch_a_flipped_parity_sign(monkeypatch):
    import cliffsig.verify as verify

    failing = _failing_core_cells(monkeypatch, verify, "parity", _sign_flipped_on(E2 | E3 | E5))
    assert failing == {
        "involutions": "32 blades: parity not a character, first (e1, e2^e3^e5), "
        "reversion a quadratic refinement of the commutation bicharacter"
    }


def test_core_involutions_require_each_blade_to_map_to_itself(monkeypatch):
    # reversion sending e1^e2 to e1^e3 is no sign on blades; the cell reads
    # each blade, so it names the blade instead of assuming diagonality
    import cliffsig.verify as verify

    def alter(honest):
        def law(x):
            y = honest(x)
            c = y.terms.get(E1 | E2)
            return y + Multivector(x.sig, {E1 | E2: -c, E1 | E3: c}) if c and x.sig.n > 2 else y

        return law

    failing = _failing_core_cells(monkeypatch, verify, "reversion", alter)
    assert failing == {"involutions": "32 blades: reversion sends (e1^e2) off ± itself"}


def test_core_decomposition_catches_a_flipped_left_contraction(monkeypatch):
    # e2 ⌟ e1^e2 = -e1 made +e1: the decomposition cell reads the pair
    # kernel and fails; the adjointness cell reads the row forms, so
    # nothing else does
    from cliffsig import kernels

    failing = _failing_core_cells(
        monkeypatch, kernels, "blade_left_contract", _kernel_flipped_on((E2, E1 | E2))
    )
    assert failing == {
        "decomposition": "160 (generator, blade) pairs, 1 violations; first (e2, e1^e2)",
    }


def test_core_decomposition_catches_a_flipped_geometric_row(monkeypatch):
    # e2 e1^e3 = -e1^e2^e3 made +e1^e2^e3.  One flipped sign is no
    # bicharacter twist, so the certificate fails as well, and with it the
    # involutions cell, which quotes its verdict
    import cliffsig.verify as verify

    def alter(honest):
        return lambda sig: rows(_kernel_flipped_on((E2, E1 | E3))(geometric_pair_op(sig)))

    failing = _failing_core_cells(monkeypatch, verify, "geometric_row_op", alter)
    assert failing == {
        "associativity": "bicharacter certificate, 1024 pairs, first violation (e2, e1^e3)",
        "involutions": "32 blades: no certificate: "
        "bicharacter certificate, 1024 pairs, first violation (e2, e1^e3)",
        "decomposition": "160 (generator, blade) pairs, 1 violations; first (e2, e1^e3)",
    }


def test_core_involutions_quote_a_failed_certificate(monkeypatch):
    # under 1 * e1 = -e1 no signature with n >= 1 has a clean certificate,
    # so its involutions cell fails with the associativity cell's verdict
    import cliffsig.verify as verify

    def twisted(sig):
        op = geometric_pair_op(sig)

        def blade_op(x, y):
            sign, mask = op(x, y)
            return (-sign, mask) if (x, y) == (0, 0b1) else (sign, mask)

        return rows(blade_op)

    monkeypatch.setattr(verify, "geometric_row_op", twisted)
    cells = {c.key: c for c in run_suite("core", 5).cells}
    assert cells["0,0:involutions"].ok
    for sig in signatures_up_to(5):
        if sig.n:
            key = f"{sig.p},{sig.q}"
            involutions = cells[f"{key}:involutions"]
            assert not involutions.ok, key
            assert involutions.detail == (
                f"{2**sig.n} blades: no certificate: {cells[f'{key}:associativity'].detail}"
            )
    assert cells["2,1:involutions"].detail == (
        "8 blades: no certificate: exhaustive triples, first violation (1, 1, e1)"
    )


def test_all_fails_each_cell_as_its_suite_alone(monkeypatch):
    # e2 e1^e3 = -e1^e2^e3 made +e1^e2^e3 breaks the shared certificate
    # of every signature with n >= 3: within all, the table1, table4 and
    # core cells that read it fail with the details of their standalone
    # runs, each table cell through its own pass
    import cliffsig.verify as verify

    def alter(sig):
        return rows(_kernel_flipped_on((E2, E1 | E3))(geometric_pair_op(sig)))

    monkeypatch.setattr(verify, "geometric_row_op", alter)
    rep = run_suite("all", 4)
    assert [(c.key, c.ok, c.detail) for c in rep.cells] == _joined(4)
    failing = {c.key.split("/")[0] for c in rep.cells if not c.ok}
    assert failing == {"table1", "table4", "core"}
    details = {c.key: c.detail for c in rep.cells}
    assert details["table1/3,0"] == (
        "Cl(3,0) ~ M(2,C); not associative: exhaustive triples, first violation (e1, e2, e1^e3)"
    )


def test_the_computed_product_is_the_certified_one(monkeypatch):
    # geometric_product and whole_algebra's certificate read one row
    # function: one bit flipped in kernels.blade_mul_row, e1 e2 = -e1^e2,
    # changes both the product the package computes and the certificate
    from cliffsig import geometric_product, kernels
    from cliffsig.verify import whole_algebra

    sig = Signature(2, 0)
    e1, e2 = (Multivector.basis_vector(sig, i) for i in (1, 2))
    assert geometric_product(e1, e2) == Multivector.blade(sig, E1 | E2)
    assert whole_algebra(sig).verdict.ok
    honest = kernels.blade_mul_row

    def flipped(a, cols, neg):
        bs = cols[0]
        return honest(a, cols, neg) ^ (1 << bs.index(E2) if a == E1 and E2 in bs else 0)

    monkeypatch.setattr(kernels, "blade_mul_row", flipped)
    assert geometric_product(e1, e2) == Multivector.blade(sig, E1 | E2, -1)
    assert geometric_product(e2, e1) == Multivector.blade(sig, E1 | E2, -1)
    assert whole_algebra(sig).problem == (
        "not associative: exhaustive triples, first violation (e1, e1, e2)"
    )


def test_a_cell_that_raises_fails_and_an_interrupt_stops_the_run():
    from cliffsig.verify import SuiteReport, _timed

    def broken():
        raise ZeroDivisionError("fault")

    def interrupted():
        raise KeyboardInterrupt

    report = SuiteReport("core", [])
    _timed(report, "0,0:broken", broken)
    (cell,) = report.cells
    assert (cell.key, cell.ok, cell.detail) == ("0,0:broken", False, "raised ZeroDivisionError: fault")
    assert cell.seconds >= 0 and report.violations == 1
    with pytest.raises(KeyboardInterrupt):
        _timed(report, "0,0:interrupted", interrupted)
    assert len(report.cells) == 1


def test_a_blade_list_that_raises_fails_its_cells_not_the_run(monkeypatch):
    # the core cells build their own blade lists: all_blades raising at
    # n == 2 fails the three cells of each such signature that read it,
    # and the run still reports every cell of every signature
    import cliffsig.verify as verify

    honest = verify.all_blades

    def faulted(sig):
        if sig.n == 2:
            raise ValueError(f"fault: {sig}")
        return honest(sig)

    monkeypatch.setattr(verify, "all_blades", faulted)
    rep = run_suite("core", 3)
    assert len(rep.cells) == 5 * len(list(signatures_up_to(3)))
    failing = {c.key: c.detail for c in rep.cells if not c.ok}
    cells = ("associativity", "adjointness", "involutions")
    assert set(failing) == {f"{p},{2 - p}:{cell}" for p in range(3) for cell in cells}
    assert all(d.startswith("raised ValueError: fault: Cl(") for d in failing.values()), failing


def _columns_without_the_last_bit_of_plane_0(honest):
    def columns(bs):
        bs, planes = honest(bs)
        if planes:
            planes[0] &= ~(1 << (len(bs) - 1))
        return bs, planes

    return columns


def _contraction_rows_past_the_view(honest):
    def contraction_rows(a, cols, neg):
        extra = 1 << len(cols[0])
        (nl, zl), (nr, zr) = honest(a, cols, neg)
        return (nl, zl | extra), (nr, zr | extra)

    return contraction_rows


ALL_SUITES = {"table1", "table2", "table4", "sigchange", "core"}

#: Each curated kernel fault: the (module, name) pairs it patches, every
#: place the sweeps read that name from, and the fault given the honest
#: function; then the suites it fails and the first failing key of
#: ``run_suite("all", 4)``.
KERNEL_FAULTS = {
    "reorder-mask-shift": (
        [("kernels", "reorder_mask")], lambda honest: lambda a: a >> 1,
        ALL_SUITES, "table1/2,1",
    ),
    "row-ignores-neg": (
        [("kernels", "blade_mul_row")], lambda honest: lambda a, cols, neg: honest(a, cols, 0),
        ALL_SUITES, "table1/0,1",
    ),
    "columns-drop-a-bit": (
        [("kernels", "columns"), ("oracle", "columns")], _columns_without_the_last_bit_of_plane_0,
        ALL_SUITES, "table1/0,1",
    ),
    "contraction-zero-past-view": (
        [("kernels", "contraction_rows")], _contraction_rows_past_the_view,
        {"core"}, "core/0,0:adjointness",
    ),
    "wedge-fires-on-overlap": (
        [("kernels", "blade_wedge")], lambda honest: lambda a, b: kernels.blade_mul(a, b, 0),
        {"sigchange", "core"}, "sigchange/0,1,odd=",
    ),
    "target-swapped": (
        [("sigchange", "target_signature")], lambda honest: lambda gr: honest(gr)[::-1],
        {"sigchange"}, "sigchange/0,1,odd=",
    ),
}


def _patch_fault(monkeypatch, fault):
    """Patch the curated kernel fault ``fault`` wherever the sweeps read
    the name it replaces."""
    import importlib

    patches, make, _, _ = KERNEL_FAULTS[fault]
    modules = {name: importlib.import_module(f"cliffsig.{name}") for name, _ in patches}
    honest = getattr(modules[patches[0][0]], patches[0][1])
    faulted = make(honest)
    for module, name in patches:
        assert getattr(modules[module], name) is honest
        monkeypatch.setattr(modules[module], name, faulted)


@pytest.mark.parametrize("fault", list(KERNEL_FAULTS))
def test_each_curated_kernel_fault_fails_named_cells(monkeypatch, fault):
    # a fault in a kernel, or in what the sweeps read off one, is a
    # verdict: the run returns, fails in exactly the suites that read the
    # faulted function, and names its first failing cell
    _, _, suites, first = KERNEL_FAULTS[fault]
    _patch_fault(monkeypatch, fault)
    rep = run_suite("all", 4)
    failing = [c.key for c in rep.cells if not c.ok]
    assert {key.split("/")[0] for key in failing} == suites
    assert failing[0] == first


def test_a_kernel_fault_after_a_run_fails_every_suite_of_the_next(monkeypatch):
    # a run keeps the frame of each n's blades (oracle.blade_frame), with
    # its row tables, only while its walk is at n; a kernel fault patched in
    # after a clean run must fail every suite of the next: column views that
    # drop a bit, which a frame kept past its run, made from the honest
    # views, would hide from table1's and table4's cells, and a shifted
    # reorder mask, which the frame's row tables and every plain row read
    for fault in ("columns-drop-a-bit", "reorder-mask-shift"):
        assert run_suite("all", 3).ok, fault
        with monkeypatch.context() as m:
            _patch_fault(m, fault)
            failing = {c.key.split("/")[0] for c in run_suite("all", 3).cells if not c.ok}
        assert failing == ALL_SUITES, fault


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_the_sweeps_catch_a_fault_in_the_right_hand_rows(monkeypatch):
    # blade_mul_col with a.bit_count() | 1 for & 1 flips the rows x a of
    # every even a; no sweep compares those rows with the certified left
    # rows yet, so the run reads 0 violations
    from functools import reduce
    from operator import xor

    honest = kernels.blade_mul_col

    def faulted(a, cols, neg):
        return honest(a, cols, neg) ^ (0 if a.bit_count() & 1 else reduce(xor, cols[1], 0))

    monkeypatch.setattr(kernels, "blade_mul_col", faulted)
    assert not run_suite("all", 4).ok
