"""Deformed products: vee_alpha and its split form, the tilt, vee_prime,
and the wedge-relation counterexample search."""

import itertools
import random

import pytest

from cliffsig import (
    Multivector,
    Signature,
    Z2Grading,
    all_blades,
    alpha,
    blade_indices,
    deformed_metric,
    extended_metric,
    find_wedge_counterexample,
    geometric_product,
    geometric_row_op,
    left_contraction,
    naive_antisymmetrization,
    project_even,
    project_odd,
    target_signature,
    tilt_product,
    vee_alpha,
    vee_alpha_key,
    vee_alpha_row_op,
    vee_alpha_via_split,
    vee_prime,
    vee_prime_row_op,
    verify_clifford_map,
    wedge,
    weighted_antisymmetrization,
)
from cliffsig import kernels
from cliffsig.verify import (
    _cell_result,
    all_gradings,
    run_suite,
    signatures_up_to,
)

from oracles import (
    NotTwisted,
    definition_reference,
    random_multivector,
    random_vector,
    regular_representation,
    rows,
    structural_invariants,
    vee_alpha_pair_op,
    vee_prime_pair_op,
)


def basis(sig, i):
    return Multivector.basis_vector(sig, i)


def definition(gr, shared=None):
    """The ``definition`` CheckResult of ``verify_clifford_map(gr)``, which
    reads the expected rows kept in ``shared``, or makes its own."""
    checks = verify_clifford_map(gr, shared=shared).checks
    return next(c for c in checks if c.name == "definition")


def counting_rows(monkeypatch):
    """Count the calls of ``sigchange._definition_rows``: one per set of
    expected rows made, none for rows read from a dict."""
    import cliffsig.sigchange as sigchange

    made = []
    honest = sigchange._definition_rows

    def rows_of(sig):
        made.append((sig.p, sig.q))
        return honest(sig)

    monkeypatch.setattr(sigchange, "_definition_rows", rows_of)
    return made


def flipped_left_contract(pair):
    """``kernels.blade_left_contract`` with the sign of one (a, b) pair
    flipped, for every metric."""
    honest = kernels.blade_left_contract

    def flipped(a, b, neg):
        sign, mask = honest(a, b, neg)
        return (-sign, mask) if (a, b) == pair else (sign, mask)

    return flipped


def fold_vee_alpha(a, b, gr):
    """The definition, independently of the package's driver: v ∨ x =
    v^x + alpha(v)⌟x on generators, folded right to left over the
    generators of each blade of ``a``."""
    out = Multivector.zero(a.sig)
    for mask, coeff in a.terms.items():
        x = b * coeff
        for i in reversed(blade_indices(mask)):
            v = basis(a.sig, i)
            x = wedge(v, x) + left_contraction(alpha(v, gr), x)
        out = out + x
    return out


def projection_vee_prime(a, b, gr):
    """b0 a0 + b0 a1 + b1 a0 - b1 a1 with the alpha-projections."""
    a0, a1 = project_even(a, gr), project_odd(a, gr)
    b0, b1 = project_even(b, gr), project_odd(b, gr)
    return (
        geometric_product(b0, a0)
        + geometric_product(b0, a1)
        + geometric_product(b1, a0)
        - geometric_product(b1, a1)
    )


def small_gradings(max_n):
    from cliffsig.verify import signatures_up_to

    for sig in signatures_up_to(max_n):
        mvs = [Multivector.blade(sig, m) for m in all_blades(sig)]
        for gr in all_gradings(sig):
            yield gr, mvs


# -- deformed metric and target signature ---------------------------------------


def test_deformed_metric_trivial_and_usual():
    sig = Signature(1, 2)
    triv = Z2Grading.trivial(sig)
    usual = Z2Grading.usual(sig)
    for i in range(1, 4):
        for j in range(1, 4):
            u, v = basis(sig, i), basis(sig, j)
            assert deformed_metric(u, v, triv) == extended_metric(u, v)
            assert deformed_metric(u, v, usual) == -extended_metric(u, v)


def test_deformed_metric_example():
    sig = Signature(1, 3)
    gr = Z2Grading.from_odd_indices(sig, [1])
    assert deformed_metric(basis(sig, 1), basis(sig, 1), gr) == -1
    assert deformed_metric(basis(sig, 2), basis(sig, 2), gr) == -1


def test_deformed_metric_rejects_non_vectors():
    sig = Signature(2, 0)
    gr = Z2Grading.trivial(sig)
    with pytest.raises(ValueError):
        deformed_metric(Multivector.scalar(sig, 1), basis(sig, 1), gr)


def test_target_signature():
    sig = Signature(1, 3)
    assert target_signature(Z2Grading.usual(sig)) == (3, 1)
    assert target_signature(Z2Grading.from_odd_indices(sig, [2, 3, 4])) == (4, 0)
    assert target_signature(Z2Grading.trivial(sig)) == (1, 3)


# -- vee_alpha -------------------------------------------------------------------


def test_trivial_grading_is_original_product():
    # all blade pairs, every signature up to n = 6
    from cliffsig.verify import signatures_up_to

    for sig in signatures_up_to(6):
        gr = Z2Grading.trivial(sig)
        for ma, mb in itertools.product(all_blades(sig), repeat=2):
            a, b = Multivector.blade(sig, ma), Multivector.blade(sig, mb)
            assert vee_alpha(a, b, gr) == geometric_product(a, b)


def test_usual_grading_flips_generator_squares():
    sig = Signature(1, 3)
    gr = Z2Grading.usual(sig)
    for i in range(1, 5):
        ei = basis(sig, i)
        assert vee_alpha(ei, ei, gr) == -sig.metric(i)


def test_single_odd_generator_example():
    # odd = {k}: Cl(p,q) -> Cl(p-1,q+1) when e_k squares to +1
    sig = Signature(2, 1)
    gr = Z2Grading.from_odd_indices(sig, [1])
    assert target_signature(gr) == (1, 2)
    assert vee_alpha(basis(sig, 1), basis(sig, 1), gr) == -1
    # and Cl(p,q) -> Cl(p+1,q-1) when e_k squares to -1
    gr = Z2Grading.from_odd_indices(sig, [3])
    assert target_signature(gr) == (3, 0)
    assert vee_alpha(basis(sig, 3), basis(sig, 3), gr) == 1


def test_vee_alpha_equals_generator_folding_exhaustive():
    # the driver (blade kernel under neg ^ odd) against the definition:
    # every blade pair, every grading, n <= 4
    pairs = 0
    for gr, mvs in small_gradings(4):
        for a, b in itertools.product(mvs, repeat=2):
            assert vee_alpha(a, b, gr) == fold_vee_alpha(a, b, gr), (gr, a, b)
            pairs += 1
    assert pairs == sum((n + 1) * 2**n * 4**n for n in range(5))


def test_vee_alpha_is_bilinear():
    rng = random.Random(2)
    sig = Signature(2, 1)
    gr = Z2Grading.from_odd_indices(sig, [2])
    for _ in range(50):
        a = random_multivector(rng, sig)
        b = random_multivector(rng, sig)
        c = random_multivector(rng, sig)
        assert vee_alpha(a + b, c, gr) == vee_alpha(a, c, gr) + vee_alpha(b, c, gr)
        assert vee_alpha(a, b + c, gr) == vee_alpha(a, b, gr) + vee_alpha(a, c, gr)


def test_alpha_is_automorphism_of_vee_alpha():
    rng = random.Random(6)
    for sig in [Signature(2, 1), Signature(1, 3)]:
        for gr in all_gradings(sig):
            for _ in range(10):
                a = random_multivector(rng, sig)
                b = random_multivector(rng, sig)
                assert alpha(vee_alpha(a, b, gr), gr) == vee_alpha(
                    alpha(a, gr), alpha(b, gr), gr
                )


def test_generator_relations_every_grading_up_to_n6():
    # e_i v e_j + e_j v e_i = 2 g_a(e_i, e_j), all gradings, n <= 6
    from cliffsig.verify import signatures_up_to

    for sig in signatures_up_to(6):
        vectors = [basis(sig, i) for i in range(1, sig.n + 1)]
        for gr in all_gradings(sig):
            for i, ei in enumerate(vectors):
                for ej in vectors[i:]:
                    lhs = vee_alpha(ei, ej, gr) + vee_alpha(ej, ei, gr)
                    assert lhs == Multivector.scalar(
                        sig, 2 * deformed_metric(ei, ej, gr)
                    )


def test_deformed_products_associative_randomized_n8():
    # >= 1000 random blade triples at n = 8 for both deformed products
    rng = random.Random(77)
    sig = Signature(4, 4)
    size = 1 << sig.n
    for _ in range(1100):
        gr = Z2Grading(sig, rng.randrange(size))
        a = Multivector.blade(sig, rng.randrange(size))
        b = Multivector.blade(sig, rng.randrange(size))
        c = Multivector.blade(sig, rng.randrange(size))
        assert vee_alpha(vee_alpha(a, b, gr), c, gr) == vee_alpha(
            a, vee_alpha(b, c, gr), gr
        )
        assert vee_prime(vee_prime(a, b, gr), c, gr) == vee_prime(
            a, vee_prime(b, c, gr), gr
        )


# -- the split form --------------------------------------------------------------


def test_split_form_pure_cases():
    sig = Signature(2, 2)
    gr = Z2Grading.from_odd_indices(sig, [1, 3])
    # v even: reduces to v a
    v = basis(sig, 2)
    a = random_multivector(random.Random(1), sig)
    assert vee_alpha_via_split(v, a, gr) == geometric_product(v, a)
    # v odd, a a k-blade: reduces to (-1)^k a v
    v = basis(sig, 1)
    for mask in all_blades(sig):
        blade = Multivector.blade(sig, mask)
        k = bin(mask).count("1")
        want = geometric_product(blade, v)
        if k & 1:
            want = -want
        assert vee_alpha_via_split(v, blade, gr) == want


def test_split_form_equals_folding_exhaustive():
    # every grading, every basis vector, every blade, n <= 4
    for n in range(5):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            blades = all_blades(sig)
            for gr in all_gradings(sig):
                for i in range(1, n + 1):
                    v = basis(sig, i)
                    for mask in blades:
                        a = Multivector.blade(sig, mask)
                        assert vee_alpha_via_split(v, a, gr) == vee_alpha(v, a, gr)


def test_split_form_equals_folding_randomized():
    rng = random.Random(13)
    sig = Signature(1, 3)
    gr = Z2Grading.from_odd_indices(sig, [1, 2])
    for _ in range(1000):
        v = random_vector(rng, sig)
        a = random_multivector(rng, sig)
        assert vee_alpha_via_split(v, a, gr) == vee_alpha(v, a, gr)


def test_split_form_rejects_non_vector():
    sig = Signature(2, 0)
    gr = Z2Grading.trivial(sig)
    with pytest.raises(ValueError):
        vee_alpha_via_split(Multivector.scalar(sig, 1), basis(sig, 1), gr)


# -- tilt -------------------------------------------------------------------------


def test_tilt_equals_vee_alpha_usual():
    for p, q in [(2, 0), (1, 1), (2, 2), (1, 3)]:
        sig = Signature(p, q)
        gr = Z2Grading.usual(sig)
        for ma, mb in itertools.product(all_blades(sig), repeat=2):
            a, b = Multivector.blade(sig, ma), Multivector.blade(sig, mb)
            assert tilt_product(a, b) == vee_alpha(a, b, gr)


def test_tilt_on_even_parts_is_reversed_product():
    rng = random.Random(21)
    sig = Signature(2, 2)
    for _ in range(50):
        a = random_multivector(rng, sig)
        b = random_multivector(rng, sig)
        from cliffsig.core import even_grade_part

        a0, b0 = even_grade_part(a), even_grade_part(b)
        assert tilt_product(a0, b0) == geometric_product(b0, a0)


def test_tilt_flips_minkowski_generator_squares():
    sig = Signature(1, 3)
    squares = [
        tilt_product(basis(sig, i), basis(sig, i)).scalar_part() for i in range(1, 5)
    ]
    assert squares == [-1, 1, 1, 1]


def test_tilt_on_vectors():
    # x, y vectors: tilt(x,y) = -y x, so tilt(x,x) = -g(x,x)
    rng = random.Random(8)
    sig = Signature(1, 3)
    for _ in range(100):
        x = random_vector(rng, sig)
        y = random_vector(rng, sig)
        assert tilt_product(x, y) == -geometric_product(y, x)
        assert tilt_product(x, x) == Multivector.scalar(sig, -extended_metric(x, x))


# -- vee_prime ---------------------------------------------------------------------


def test_vee_prime_equals_projection_formula_exhaustive():
    # the driver ((-1)^(pi(x)pi(y)) y x on blades) against the four
    # alpha-projection formula: every blade pair, every grading, n <= 4
    for gr, mvs in small_gradings(4):
        for a, b in itertools.product(mvs, repeat=2):
            assert vee_prime(a, b, gr) == projection_vee_prime(a, b, gr), (gr, a, b)


def test_vee_prime_odd_odd_vectors():
    sig = Signature(2, 0)
    gr = Z2Grading.usual(sig)
    x, y = basis(sig, 1), basis(sig, 2)
    assert vee_prime(x, y, gr) == -geometric_product(y, x)


def test_vee_prime_even_left_argument():
    # a alpha-even: a v' b = (pi0 b) a + (pi1 b) a
    rng = random.Random(31)
    sig = Signature(2, 1)
    gr = Z2Grading.from_odd_indices(sig, [2])
    for _ in range(50):
        a = project_even(random_multivector(rng, sig), gr)
        b = random_multivector(rng, sig)
        want = geometric_product(project_even(b, gr), a) + geometric_product(
            project_odd(b, gr), a
        )
        assert vee_prime(a, b, gr) == want


def test_vee_prime_matches_tilt_for_usual_grading():
    sig = Signature(2, 1)
    gr = Z2Grading.usual(sig)
    for ma, mb in itertools.product(all_blades(sig), repeat=2):
        a, b = Multivector.blade(sig, ma), Multivector.blade(sig, mb)
        assert vee_prime(a, b, gr) == tilt_product(a, b)


def test_vee_prime_associative_and_closed_exhaustive():
    # n <= 3 here; the full n <= 4 sweep runs in the acceptance suite
    for n in range(4):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            blades = all_blades(sig)
            for gr in all_gradings(sig):
                mvs = [Multivector.blade(sig, m) for m in blades]
                for a, b in itertools.product(mvs, repeat=2):
                    ab = vee_prime(a, b, gr)
                    # closure: parities add mod 2
                    pa = gr.blade_parity(next(iter(a.terms)))
                    pb = gr.blade_parity(next(iter(b.terms)))
                    for m in ab.terms:
                        assert gr.blade_parity(m) == (pa + pb) & 1
                for a, b, c in itertools.product(mvs, repeat=3):
                    assert vee_prime(vee_prime(a, b, gr), c, gr) == vee_prime(
                        a, vee_prime(b, c, gr), gr
                    )


def test_vee_prime_generator_squares_match_deformed_metric():
    sig = Signature(2, 2)
    for gr in all_gradings(sig):
        for i in range(1, 5):
            ei = basis(sig, i)
            assert vee_prime(ei, ei, gr) == Multivector.scalar(
                sig, deformed_metric(ei, ei, gr)
            )


def test_vee_prime_fingerprint_is_reported():
    # no closed form is asserted; the fingerprint is just well-defined
    gr = Z2Grading.from_odd_indices(Signature(1, 1), [1])
    fp = structural_invariants(
        regular_representation(all_blades(gr.sig), vee_prime_pair_op(gr))
    )
    assert fp.dim == 4


def test_vee_prime_row_against_pairs_and_naive_oracle():
    # every bit of each ∨' row equals the pair rule
    # (-1)^(π(x)π(y)) blade_mul(y, x, neg) and the transposition count of
    # y x, for every grading with n <= 4, over every blade in order, over a
    # shuffled proper subset where no position holds its own mask, and over
    # half the blades reversed, where some x holds odd generators beyond
    # the view
    from oracles import naive_blade_product

    views = 0
    for sig in signatures_up_to(4):
        every = all_blades(sig)
        subset, rng = every[1:], random.Random(sig.n)
        while any(b == j for j, b in enumerate(subset)):
            rng.shuffle(subset)
        for gr in all_gradings(sig):
            row_op, odd = vee_prime_row_op(gr), set(blade_indices(gr.odd_mask))
            for bs in (every, subset, every[: len(every) // 2][::-1]):
                cols = kernels.columns(bs)
                for x in every:
                    neg, zero = row_op(x, cols)
                    assert zero == 0 and neg >> len(bs) == 0, (gr, x)
                    for j, y in enumerate(bs):
                        sign, mask = kernels.blade_mul(y, x, sig.neg_mask)
                        if (x & gr.odd_mask).bit_count() & (y & gr.odd_mask).bit_count() & 1:
                            sign = -sign
                        assert (kernels.row_sign((neg, zero), j), x ^ y) == (sign, mask), (gr, x, y)
                        ix, iy = blade_indices(x), blade_indices(y)
                        want, idx = naive_blade_product(iy, ix, sig.p, sig.q)
                        if len(odd.intersection(ix)) * len(odd.intersection(iy)) & 1:
                            want = -want
                        assert (sign, idx) == (want, blade_indices(x ^ y)), (gr, x, y)
                views += 1
    assert views == 3 * sum((n + 1) * 2**n for n in range(5))


# -- wedge relation ------------------------------------------------------------------


def test_weighted_identity_holds_for_every_grading():
    rng = random.Random(41)
    for sig in [Signature(2, 0), Signature(1, 2), Signature(2, 2)]:
        for gr in all_gradings(sig):
            for _ in range(20):
                x = random_vector(rng, sig)
                y = random_vector(rng, sig)
                assert weighted_antisymmetrization(x, y, gr) == wedge(x, y)


def test_naive_antisymmetrization_matches_wedge_for_usual():
    rng = random.Random(43)
    sig = Signature(1, 3)
    gr = Z2Grading.usual(sig)
    for _ in range(200):
        x = random_vector(rng, sig)
        y = random_vector(rng, sig)
        assert naive_antisymmetrization(x, y, gr) == wedge(x, y)
    assert find_wedge_counterexample(gr) is None


def test_counterexample_found_for_mixed_grading():
    gr = Z2Grading.from_odd_indices(Signature(2, 0), [1])
    w = find_wedge_counterexample(gr)
    assert w is not None
    assert w.exterior != w.antisymmetrized
    # the search is deterministic: first witness is the first basis pair
    assert w.x == basis(Signature(2, 0), 1)
    assert w.y == basis(Signature(2, 0), 2)
    assert w.exterior == wedge(w.x, w.y)
    assert w.antisymmetrized == -wedge(w.x, w.y)


def test_counterexample_search_over_all_small_gradings():
    # on basis vectors e_i, e_j (i < j) the naive antisymmetrization is
    # e_i^e_j when both are odd and -e_i^e_j otherwise, so the witness is the
    # first pair that is not both odd, and there is none exactly when n < 2
    # or the grading is the all-odd one
    for sig in signatures_up_to(6):
        for gr in all_gradings(sig):
            w = find_wedge_counterexample(gr)
            pairs = [
                (i, j)
                for i, j in itertools.combinations(range(1, sig.n + 1), 2)
                if not {i, j} <= set(gr.odd_indices)
            ]
            assert (w is None) == (not pairs) == (sig.n < 2 or gr.is_usual)
            if pairs:
                x, y = (basis(sig, k) for k in pairs[0])
                assert (w.x, w.y) == (x, y)
                assert w.exterior == wedge(x, y) == -w.antisymmetrized


# -- verify_clifford_map ---------------------------------------------------------------


def test_verify_clifford_map_paper_cases():
    sig = Signature(1, 3)
    usual = verify_clifford_map(Z2Grading.usual(sig))
    assert usual.ok and usual.target == (3, 1)
    neg = verify_clifford_map(Z2Grading.from_odd_indices(sig, [2, 3, 4]))
    assert neg.ok and neg.target == (4, 0)
    triv = verify_clifford_map(Z2Grading.trivial(sig))
    assert triv.ok and triv.target == (1, 3)


def test_verify_clifford_map_report_shape():
    rep = verify_clifford_map(Z2Grading.from_odd_indices(Signature(2, 1), [2]))
    assert [c.name for c in rep.checks] == [
        "generator-relations",
        "definition",
        "associativity",
        "fingerprint",
    ]
    assert rep.violations == 0 and rep.ok


def test_verify_clifford_map_coverage():
    small = verify_clifford_map(Z2Grading.from_odd_indices(Signature(2, 2), [1]))
    big = verify_clifford_map(Z2Grading.from_odd_indices(Signature(3, 2), [1]))
    details = {c.name: c.detail for c in small.checks}
    assert details["definition"] == "64 (generator, blade) pairs, 0 violations"
    assert details["associativity"] == "bicharacter certificate, 256 pairs, 0 violations"
    details = {c.name: c.detail for c in big.checks}
    assert details["associativity"] == "bicharacter certificate, 1024 pairs, 0 violations"
    assert small.ok and big.ok


def test_verify_clifford_map_names_first_witnesses(monkeypatch):
    # a closed but non-associative product: flip the sign of e1 ∨ e1 only
    import cliffsig.sigchange as sigchange

    honest = vee_alpha_pair_op
    sig = Signature(2, 0)

    def twisted(gr):
        op = honest(gr)

        def blade_op(x, y):
            sign, mask = op(x, y)
            return (-sign, mask) if x == y == 0b1 else (sign, mask)

        return blade_op

    monkeypatch.setattr(sigchange, "vee_alpha_row_op", lambda gr: rows(twisted(gr)))
    rep = verify_clifford_map(Z2Grading.trivial(sig))
    details = {c.name: c.detail for c in rep.checks if not c.ok}
    assert set(details) == {"generator-relations", "definition", "associativity", "fingerprint"}
    assert details["generator-relations"].endswith("1 violations; first (e1, e1)")
    assert details["definition"].endswith("1 violations; first (e1, e1)")
    # (1,e1,e1), (e1,1,e1), ... agree; (e1 e1) e2 = -e2 but e1 (e1 e2) = e2
    assert details["associativity"] == "exhaustive triples, first violation (e1, e1, e2)"
    assert "not associative" in details["fingerprint"]


def test_passing_clifford_map_builds_no_multivector(monkeypatch):
    # every check reads ∨ through its sign function alone; count both ways a
    # Multivector is made: the public constructor and core's canonical-form
    # builder behind zero, basis_vector, negation and every product
    import cliffsig.core as core

    calls = []
    honest_init, honest_new = Multivector.__init__, core._new

    def counting_init(self, *args, **kwargs):
        calls.append("__init__")
        honest_init(self, *args, **kwargs)

    def counting_new(*args):
        calls.append("_new")
        return honest_new(*args)

    monkeypatch.setattr(Multivector, "__init__", counting_init)
    monkeypatch.setattr(core, "_new", counting_new)
    for gr in [Z2Grading.from_odd_indices(Signature(2, 1), [2]), Z2Grading.usual(Signature(1, 3))]:
        assert verify_clifford_map(gr).ok
    assert calls == []


def test_definition_rejects_the_original_metric_product(monkeypatch):
    # swapping ∨ for the product of g itself breaks the definition and the
    # g_a generator relations as soon as some generator is odd
    import cliffsig.sigchange as sigchange

    monkeypatch.setattr(sigchange, "vee_alpha_row_op", lambda gr: geometric_row_op(gr.sig))
    for n in range(4):
        for p in range(n + 1):
            for gr in all_gradings(Signature(p, n - p)):
                failing = {c.name for c in verify_clifford_map(gr).checks if not c.ok}
                if gr.odd_mask:
                    assert {"generator-relations", "definition"} <= failing, gr
                else:
                    assert not failing, gr


def test_definition_sums_wedge_and_contraction(monkeypatch):
    # a contraction that also fires when e is not in A adds a second copy of
    # e^A; the check sums both kernels instead of choosing one, so it fails
    import cliffsig.kernels as kernels

    monkeypatch.setattr(kernels, "blade_left_contract", kernels.blade_mul)
    rep = verify_clifford_map(Z2Grading.from_odd_indices(Signature(2, 0), [2]))
    details = {c.name: c.detail for c in rep.checks if not c.ok}
    assert set(details) == {"definition"}
    assert details["definition"].endswith("4 violations; first (e1, 1)")


def test_definition_rejects_a_wedge_that_fires_on_overlap(monkeypatch):
    # on a blade holding e, a wedge that fires adds to the contraction's
    # blade: e1 ∨ e1 = 1 against 1 + 1 (a sum of 2) and e2 ∨ e2 = -1
    # against 1 - 1 (a sum of 0) must both fail, as every overlapping pair
    import cliffsig.kernels as kernels

    monkeypatch.setattr(kernels, "blade_wedge", lambda a, b: kernels.blade_mul(a, b, 0))
    rep = verify_clifford_map(Z2Grading.from_odd_indices(Signature(2, 0), [2]))
    details = {c.name: c.detail for c in rep.checks if not c.ok}
    assert details == {"definition": "8 (generator, blade) pairs, 4 violations; first (e1, e1)"}


def test_definition_rejects_a_wedge_and_contraction_on_different_blades(monkeypatch):
    # a wedge that fires on overlap onto the union a | b puts e1 ∧ e1 on e1
    # while e1 ⌟ e1 lies on 1: two blades, so no signed e_target is their
    # sum, and each overlapping pair fails
    import cliffsig.kernels as kernels
    from cliffsig.sigchange import _signed_sum

    assert _signed_sum((1, 0b1), (1, 0), 0) is None
    assert _signed_sum((1, 0b1), (-1, 0b10), 0b1) is None
    honest = kernels.blade_mul
    monkeypatch.setattr(kernels, "blade_wedge", lambda a, b: (honest(a, b, 0)[0], a | b))
    rep = verify_clifford_map(Z2Grading.from_odd_indices(Signature(2, 0), [2]))
    details = {c.name: c.detail for c in rep.checks if not c.ok}
    assert details == {"definition": "8 (generator, blade) pairs, 4 violations; first (e1, e1)"}


def test_definition_equals_the_pair_by_pair_reference(monkeypatch):
    # whole-row comparison against the expected rows decides exactly what
    # the pair-by-pair check did, whether the signature's rows are made by
    # this call or were kept in a dict by an earlier one
    made = counting_rows(monkeypatch)
    count = 0
    for sig in signatures_up_to(5):
        shared = {}
        definition(Z2Grading(sig, 0), shared)
        for gr in all_gradings(sig):
            want = definition_reference(gr, vee_alpha_row_op(gr))
            made.clear()
            assert definition(gr) == want, gr
            assert made == [(sig.p, sig.q)]
            assert definition(gr, shared) == want, gr
            assert made == [(sig.p, sig.q)]
            count += 1
    assert count == 321


@pytest.mark.parametrize(
    "fault, refused",
    [(lambda sign, mask: (-sign, mask), False), (lambda sign, mask: (sign, mask ^ 0b10), True)],
    ids=["flipped-sign", "wrong-mask"],
)
def test_definition_catches_one_bad_vee_entry_on_warm_rows(monkeypatch, fault, refused):
    # the trivial grading of Cl(2,1) makes the signature's rows in a dict;
    # on the next one, with e1 odd, one ∨ entry, e1 ∨ e1^e3 =
    # -e1⌟(e1^e3) = -e3, is altered, and the kept rows must catch it with
    # the reference's count and first witness.  A wrong mask is no row at
    # all: the row function, built pair by pair, refuses it and names the
    # pair
    import cliffsig.sigchange as sigchange

    made = counting_rows(monkeypatch)
    shared = {}
    first, second, *_ = all_gradings(Signature(2, 1))
    assert (first.odd_mask, second.odd_mask) == (0, 0b1)
    assert definition(first, shared).ok
    honest = vee_alpha_pair_op

    def twisted(gr):
        op = honest(gr)
        return rows(lambda a, b: fault(*op(a, b)) if (a, b) == (0b1, 0b101) else op(a, b))

    monkeypatch.setattr(sigchange, "vee_alpha_row_op", twisted)
    if refused:
        with pytest.raises(NotTwisted, match=r"^product \(e1, e1\^e3\) is not plus or minus"):
            definition(second, shared)
        assert made == [(2, 1)]
        return
    got = definition(second, shared)
    assert made == [(2, 1)]
    assert got == definition_reference(second, twisted(second))
    assert got.detail == "24 (generator, blade) pairs, 1 violations; first (e1, e1^e3)"


def test_definition_rows_come_from_the_original_kernels(monkeypatch):
    # ∨ is honest; one left contraction of the original metric is flipped,
    # so e1 ∨ e1^e2 = e2 no longer equals e1⌟(e1^e2) = -e2 for every grading
    # with e1 odd, nor +e2 for every grading with e1 even.  Expected rows
    # made from ∨ would still agree with it, whether kept or made per call
    monkeypatch.setattr(kernels, "blade_left_contract", flipped_left_contract((0b1, 0b11)))
    made = counting_rows(monkeypatch)
    shared = {}
    for gr in all_gradings(Signature(1, 1)):
        got = definition(gr, shared)
        assert got == definition(gr) == definition_reference(gr, vee_alpha_row_op(gr))
        assert got.detail == "8 (generator, blade) pairs, 1 violations; first (e1, e1^e2)", gr
    assert made == [(1, 1)] * 5  # once for the dict, once per call without it


def test_definition_rows_read_the_kernels_once_per_signature(monkeypatch):
    # n generators by 2^n blades for each of the n+1 signatures of each n:
    # sum (n+1)·n·2^n = 444 calls of each kernel at n <= 4, where reading
    # them per grading made 5,992
    import cliffsig.kernels as kernels

    calls = {"blade_wedge": 0, "blade_left_contract": 0}

    def counting(name):
        honest = getattr(kernels, name)

        def kernel(*args):
            calls[name] += 1
            return honest(*args)

        return kernel

    for name in calls:
        monkeypatch.setattr(kernels, name, counting(name))
    assert run_suite("sigchange", 4).ok
    assert sum((n + 1) * n * 2**n for n in range(5)) == 444
    assert calls == {"blade_wedge": 444, "blade_left_contract": 444}


def test_a_kernel_fault_after_a_sweep_fails_the_next_check(monkeypatch):
    # a clean sweep ends on Cl(3,0); a left contraction flipped after it
    # must fail Cl(3,0)'s trivial grading as it fails Cl(2,1)'s.  Rows the
    # sweep kept past its run, made from the honest kernel, would pass it
    assert run_suite("sigchange", 3).ok
    monkeypatch.setattr(kernels, "blade_left_contract", flipped_left_contract((0b10, 0b11)))
    for sig in Signature(3, 0), Signature(2, 1):
        got = definition(Z2Grading(sig, 0))
        assert got.detail == "24 (generator, blade) pairs, 1 violations; first (e2, e1^e2)", sig


def test_a_kernel_fault_in_a_sweep_dies_with_it(monkeypatch):
    # a core sweep under a flipped left contraction fails Cl(5,0)'s
    # decomposition cell; once the kernel is restored, the definition
    # check of Cl(5,0)'s trivial grading passes.  Rows the sweep kept past
    # its run, made from the faulty kernel, would still fail it
    with monkeypatch.context() as m:
        m.setattr(kernels, "blade_left_contract", flipped_left_contract((0b10, 0b11)))
        cells = {c.key: c for c in run_suite("core", 5).cells}
    decomposition = cells["5,0:decomposition"]
    assert not decomposition.ok
    assert decomposition.detail == "160 (generator, blade) pairs, 1 violations; first (e2, e1^e2)"
    got = definition(Z2Grading(Signature(5, 0), 0))
    assert got.ok and got.detail == "160 (generator, blade) pairs, 0 violations"


def test_one_associativity_pass_per_clifford_map(monkeypatch):
    # the associativity and fingerprint checks share one certificate pass;
    # the reference fingerprint is closed form and makes none
    import cliffsig.oracle as oracle

    gradings = [
        Z2Grading.from_odd_indices(Signature(2, 1), [2]),
        Z2Grading.from_odd_indices(Signature(3, 2), [1, 4]),
    ]
    calls = []
    honest = oracle.certify

    def counting(masks, row_op):
        calls.append(len(masks))
        return honest(masks, row_op)

    monkeypatch.setattr(oracle, "certify", counting)
    for gr in gradings:
        assert verify_clifford_map(gr).ok
    assert calls == [8, 32]


def _alone(gr):
    """The sigchange cell of ``gr`` as (key, pass, detail), from a
    verify_clifford_map call that shares nothing."""
    res = verify_clifford_map(gr)
    r, s = res.target
    failing = (f"{c.name}: {c.detail}" for c in res.checks if not c.ok)
    odd = ",".join(str(i) for i in gr.odd_indices)
    return (f"{gr.sig.p},{gr.sig.q},odd={odd}", *_cell_result(f"-> Cl({r},{s})", *failing))


def test_sigchange_sweep_equals_each_map_alone():
    # the sweep shares the ∨-only checks by (n, neg ^ odd); no cell may tell
    report = run_suite("sigchange", 5)
    gradings = [gr for sig in signatures_up_to(5) for gr in all_gradings(sig)]
    assert len(report.cells) == len(gradings) == 321
    assert [(c.key, c.ok, c.detail) for c in report.cells] == [_alone(gr) for gr in gradings]
    # and check by check, where a passing cell's detail names none
    shared = {}
    for gr in gradings:
        assert verify_clifford_map(gr, shared=shared) == verify_clifford_map(gr), gr


def test_one_certify_pass_per_deformed_metric(monkeypatch):
    # the (n+1)·2^n gradings of one n have 2^n masks neg ^ odd, so a sweep
    # certifies sum 2^k products, not sum (k+1)·2^k gradings (129 at n <= 4);
    # the shared dict keeps CheckResults by each key and the signature's
    # definition rows, never a certificate
    import cliffsig.oracle as oracle
    from cliffsig.sigchange import CheckResult

    calls = []
    honest = oracle.certify

    def counting(masks, row_op):
        calls.append(len(masks))
        return honest(masks, row_op)

    monkeypatch.setattr(oracle, "certify", counting)
    assert run_suite("sigchange", 4).ok
    assert len(calls) == 31
    assert sorted(set(calls)) == [1, 2, 4, 8, 16]

    calls.clear()
    shared = {}
    for gr in all_gradings(Signature(1, 2)):
        assert verify_clifford_map(gr, shared=shared).ok
    keys = {vee_alpha_key(gr) for gr in all_gradings(Signature(1, 2))}
    assert len(calls) == 8 and len(keys) == 8
    assert shared.keys() == keys | {("rows", 1, 2)}
    assert all(len(shared[k]) == 3 and all(type(c) is CheckResult for c in shared[k]) for k in keys)
    assert not any(isinstance(v, oracle.Certificate) for v in shared.values())
    calls.clear()
    assert verify_clifford_map(Z2Grading.from_odd_indices(Signature(3, 0), [1])).ok
    assert calls == [8]


def test_vee_alpha_rows_depend_only_on_the_key():
    # the assumption the sweep's sharing rests on, read on every row
    seen = {}
    for sig in signatures_up_to(4):
        blades = all_blades(sig)
        cols = kernels.columns(blades)
        for gr in all_gradings(sig):
            row_op = vee_alpha_row_op(gr)
            table = [row_op(a, cols) for a in blades]
            assert seen.setdefault(vee_alpha_key(gr), table) == table, gr
    assert len(seen) == 31


def test_a_fault_in_one_deformed_metric_fails_exactly_its_cells(monkeypatch):
    # flip e1 ∨ e1 for the one key (3, 0b011): the four gradings of n = 3
    # with that mask fail, each as it would alone, and every other passes
    import cliffsig.sigchange as sigchange

    honest = sigchange.vee_alpha_row_op
    bad_key = (3, 0b011)

    def twisted(gr):
        op = honest(gr)
        if vee_alpha_key(gr) != bad_key:
            return op

        def row_op(a, cols):
            neg, zero = op(a, cols)
            if a == 0b1 and a in cols[0]:
                neg ^= 1 << cols[0].index(a)
            return neg, zero

        return row_op

    monkeypatch.setattr(sigchange, "vee_alpha_row_op", twisted)
    report = run_suite("sigchange", 4)
    gradings = [gr for sig in signatures_up_to(4) for gr in all_gradings(sig)]
    failing = [gr for gr, c in zip(gradings, report.cells) if not c.ok]
    assert [vee_alpha_key(gr) for gr in failing] == [bad_key] * 4
    assert {(gr.sig.p, gr.sig.q) for gr in failing} == {(0, 3), (1, 2), (2, 1), (3, 0)}
    assert [(c.key, c.ok, c.detail) for c in report.cells] == [_alone(gr) for gr in gradings]
    assert all("generator-relations: " in c.detail for c in report.cells if not c.ok)
