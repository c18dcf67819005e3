"""The oracle's bicharacter certificate and structural fingerprints,
against the sign-table and dense references of ``oracles``."""

import itertools
from fractions import Fraction

import pytest

from cliffsig import (
    AlgebraClass,
    NotClosed,
    NotIndependent,
    Signature,
    StructuralInvariants,
    Z2Grading,
    all_blades,
    blade_indices,
    classify_clifford,
    classify_even_part,
    classify_even_subalgebra,
    even_subalgebra_basis,
    expected_invariants,
    geometric_product,
    geometric_row_op,
    vee_alpha,
    vee_prime,
)
from cliffsig import kernels
from cliffsig.core import MAX_DIMENSION
from cliffsig.oracle import certify, format_blades, oracle
from cliffsig.verify import canonical_odd_mask, signatures_up_to

from oracles import (
    DenseConstants,
    NotTwisted,
    dense_first_nonassociative_triple,
    dense_fingerprint,
    dense_invariants,
    dense_regular_representation,
    first_nonassociative_triple,
    geometric_pair_op,
    multivector_structure_constants,
    reference_constants,
    regular_representation,
    rows,
    structural_invariants,
    table_check_associativity,
    vee_alpha_pair_op,
    vee_prime_pair_op,
)


# -- the certificate pass ------------------------------------------------------


def cells(sc):
    """The sign/index form as {index: sign} cells, empty where the sign is 0."""
    return [
        [{k: s} if s else {} for s, k in zip(sign_row, prod_row)]
        for sign_row, prod_row in zip(sc.sign, sc.prod)
    ]


def refused(masks, op):
    """The certificate's problem on the blade sign function ``op``, read by
    rows, after checking that its verdict fails and certifies no blade."""
    cert = certify(masks, rows(op))
    assert not cert.verdict.ok
    assert cert.verdict.detail == cert.problem
    assert cert.coords == {} and cert.table_b == cert.table_sym == []
    return cert.problem


def test_two_element_basis_of_cl10():
    sig = Signature(1, 0)
    cert = certify([0b0, 0b1], geometric_row_op(sig))
    assert cert.verdict.ok
    assert cert.verdict.detail == "bicharacter certificate, 4 pairs, 0 violations"
    assert cert.invariants() == StructuralInvariants(2, 2, (2, 0), (2, 0))
    sc = regular_representation([0b0, 0b1], geometric_pair_op(sig))
    assert sc.dim == 2
    assert (sc.sign[1][1], sc.prod[1][1]) == (1, 0)  # e1*e1 = 1
    assert (sc.sign[0][1], sc.prod[0][1]) == (1, 1)


def test_even_subalgebra_is_closed():
    sig = Signature(3, 0)
    gr = Z2Grading.from_odd_indices(sig, [3])
    masks = even_subalgebra_basis(gr)
    cert = certify(masks, geometric_row_op(sig))
    assert cert.verdict.ok and cert.invariants().dim == 4
    sc = regular_representation(masks, geometric_pair_op(sig))
    for i, j in itertools.product(range(4), repeat=2):
        assert abs(sc.sign[i][j]) == 1 and 0 <= sc.prod[i][j] < 4


def test_not_closed():
    # e1*e2 lands outside the span: the table raises it, the pass's verdict
    # and the oracle's fail with the same message
    sig = Signature(2, 0)
    masks = [0b00, 0b01, 0b10]
    message = "product of basis elements 1 and 2 leaves the span"
    with pytest.raises(NotClosed, match=message):
        regular_representation(masks, geometric_pair_op(sig))
    assert refused(masks, geometric_pair_op(sig)) == message
    check, problem = oracle(masks, geometric_row_op(sig), classify_clifford(2, 0))
    assert not check.ok and problem == message


def test_an_unclosed_list_fails_before_any_row_is_read():
    # every product here puts a nonzero product on a ^ b, so closure is a
    # property of the masks alone: the list is judged before the pass
    # calls row_op, at its first pair in row-major order whose symmetric
    # difference is missing, even where the product there vanishes, and
    # the subgroup read of a certificate words it the same way
    calls = []

    def watched(row_op):
        def counting(a, cols):
            calls.append(a)
            return row_op(a, cols)

        return counting

    sig = Signature(3, 0)
    whole = certify(all_blades(sig), geometric_row_op(sig))
    cases = [
        ([0b000, 0b001, 0b010], geometric_row_op(sig), "1 and 2"),
        ([0b011, 0b101], geometric_row_op(sig), "0 and 0"),
        ([0b000, 0b001, 0b011, 0b110], geometric_row_op(sig), "1 and 2"),
        ([0b001, 0b011], rows(kernels.blade_wedge), "0 and 0"),  # e1 ∧ e1 = 0
    ]
    for masks, row_op, pair in cases:
        message = f"product of basis elements {pair} leaves the span"
        cert = certify(masks, watched(row_op))
        assert cert.problem == message and not cert.verdict.ok, masks
        assert calls == [], masks
        with pytest.raises(NotClosed, match=message):
            whole.invariants(masks)


def test_the_table_reference_judges_a_list_as_the_pass_does():
    # the sign-table reference judges the mask list before it reads a
    # product, as the pass does: on every list of Cl(2,1)'s blades that is
    # no subgroup, in canonical and reversed order, empty and repeated
    # lists among them, it raises the message the pass's verdict carries,
    # under the geometric product and under the wedge, whose vanishing
    # products once let an unclosed list build an all-zero table
    sig = Signature(2, 1)
    blades = all_blades(sig)
    lists = [[], [0b001, 0b001], [0b000, 0b011, 0b000]]
    lists += [[m for k, m in enumerate(blades) if bits >> k & 1] for bits in range(1, 256)]
    lists += [masks[::-1] for masks in lists]
    calls = []

    def watched(op):
        def counting(a, b):
            calls.append((a, b))
            return op(a, b)

        return counting

    checked = 0
    for masks in lists:
        closed = {a ^ b for a in masks for b in masks} <= set(masks)
        if masks and len(set(masks)) == len(masks) and closed:
            continue  # a subgroup
        for op in (geometric_pair_op(sig), kernels.blade_wedge):
            with pytest.raises((NotClosed, NotIndependent)) as raised:
                regular_representation(masks, watched(op))
            assert str(raised.value) == certify(masks, rows(op)).verdict.detail, masks
            checked += 1
    assert calls == [] and checked == 2 * (len(lists) - 2 * 16)
    assert certify([0b001, 0b011], rows(kernels.blade_wedge)).verdict.detail == (
        "product of basis elements 0 and 0 leaves the span"
    )


def test_not_independent():
    sig = Signature(1, 0)
    op = geometric_pair_op(sig)
    for masks, message in [([1, 1], "a blade appears twice in the basis"), ([], "empty basis")]:
        with pytest.raises(NotIndependent, match=message):
            regular_representation(masks, op)
        assert refused(masks, op) == message


def test_product_off_the_symmetric_difference_rejected():
    # every shortcut of the oracle rests on e_a e_b = ±e_{a^b}: e1 e1 = e1
    # is inside the span but not on the blade 0, so it is refused
    # by the table, and by the row function, which names the pair as blades
    def op(a, b):
        return 1, a | b

    with pytest.raises(NotTwisted, match="basis elements 1 and 1"):
        regular_representation([0, 1], op)
    assert refused([0, 1], op) == "product (e1, e1) is not plus or minus the blade 0b0"


def test_zero_sign_gives_empty_cell():
    # a sign of 0 is no term, as in core.bilinear: the wedge of two
    # overlapping blades is 0, whatever mask the sign function reports.
    # The exterior algebra is associative, but 0 is no bicharacter sign,
    # so the certificate fails at e1 ^ e1 and the triple search finds none
    sc = regular_representation([0b0, 0b1], kernels.blade_wedge)
    assert sc.sign == [[1, 1], [1, 0]]
    assert sc.prod == [[0, 1], [1, -1]]
    assert first_nonassociative_triple(sc, 0, 200) is None
    cert = certify([0b0, 0b1], rows(kernels.blade_wedge))
    verdict = cert.verdict
    assert not verdict.ok and cert.coords == {}
    assert verdict.detail == (
        "bicharacter certificate, 4 pairs, first violation (e1, e1)"
    )
    assert cert.problem == f"not a bicharacter twist: {verdict.detail}"


def test_a_pass_reads_one_row_per_call():
    # k generator rows of B, then one row per basis blade: k + dim calls
    # that read every one of the dim**2 signs of the basis from the kernel
    for sig in signatures_up_to(4):
        masks = all_blades(sig)
        honest = geometric_row_op(sig)
        calls = []

        def spy(a, cols):
            calls.append((a, list(cols[0])))
            return honest(a, cols)

        assert certify(masks, spy).verdict.ok
        k, dim = sig.n, len(masks)
        generators = [1 << i for i in range(k)]
        assert len(calls) == k + dim, sig
        assert calls[:k] == [(g, generators) for g in generators]
        assert calls[k:] == [(a, masks) for a in masks]
        assert sum(len(bs) for _, bs in calls[k:]) == dim**2


def test_blade_ops_match_the_multivector_products():
    # the slow construction (each constant read off the Multivector
    # product of two unit blades) agrees with the pair reference, for the
    # three products the package fingerprints, over every grading n <= 4
    for sig in signatures_up_to(4):
        masks = all_blades(sig)
        assert cells(regular_representation(masks, geometric_pair_op(sig))) == (
            multivector_structure_constants(sig, masks, geometric_product)
        )
        for odd_mask in range(1 << sig.n):
            gr = Z2Grading(sig, odd_mask)
            for op, product in [
                (vee_alpha_pair_op, vee_alpha),
                (vee_prime_pair_op, vee_prime),
            ]:
                want = multivector_structure_constants(
                    sig, masks, lambda a, b: product(a, b, gr)
                )
                assert cells(regular_representation(masks, op(gr))) == want, (
                    gr, product.__name__
                )


# -- structural invariants -------------------------------------------------------


def fingerprints(masks, op):
    """The certificate's fingerprint and the sign-table reference's."""
    return (
        certify(masks, rows(op)).invariants(),
        structural_invariants(regular_representation(masks, op)),
    )


def test_quaternion_fingerprint():
    sig = Signature(0, 2)  # Cl(0,2) is the quaternions
    got, ref = fingerprints([0b00, 0b01, 0b10, 0b11], geometric_pair_op(sig))
    assert got == ref == StructuralInvariants(4, 1, (1, 3), (1, 0))


def test_split_fingerprint():
    # R (+) R realized as Cl(1,0)
    got, ref = fingerprints([0, 1], geometric_pair_op(Signature(1, 0)))
    assert got == ref == StructuralInvariants(2, 2, (2, 0), (2, 0))


def test_matrix_algebra_fingerprint():
    # M(2,R) realized as Cl(2,0)
    got, ref = fingerprints([0, 1, 2, 3], geometric_pair_op(Signature(2, 0)))
    assert got == ref == StructuralInvariants(4, 1, (3, 1), (1, 0))


def flipped(op, *pairs):
    """``op`` with the sign of each listed blade pair negated."""

    def blade_op(a, b):
        sign, mask = op(a, b)
        return (-sign, mask) if (a, b) in pairs else (sign, mask)

    return blade_op


def test_non_associative_detected():
    # one flipped sign of the geometric product breaks the bicharacter,
    # except e1*e1 in Cl(1,0) and Cl(0,1), which swaps the two.  Where the
    # dense reference finds a failing triple (every triple, n <= 2, one
    # flipped cell), the verdict names it as blades in the table's
    # wording.  1*1 = -1 in Cl(0,0) is R with unit -1, associative but off
    # the bicharacter, so the verdict names the pair.  At n = 5 (the row
    # of e1 flipped) the dense sample finds a triple, and the verdict,
    # which searches no triples at dim 32, names the first pair
    cases = failing = 0
    for sig in signatures_up_to(2):
        masks = all_blades(sig)
        for pair in itertools.product(masks, repeat=2):
            cases += 1
            op = flipped(geometric_pair_op(sig), pair)
            sc = regular_representation(masks, op)
            want = dense_first_nonassociative_triple(
                dense_regular_representation(masks, op), 0, 200
            )
            assert first_nonassociative_triple(sc, 0, 200) == want, (sig, pair)
            check, problem = oracle(masks, rows(op), AlgebraClass.of("R"))
            if want is not None:
                _, report = table_check_associativity(masks, sc, 0, 200)
                assert check.detail == report, (sig, pair)
                assert problem == f"not associative: {report}"
            elif not check.ok:
                assert (sig, pair) == (Signature(0, 0), (0, 0))
                assert problem == (
                    "not a bicharacter twist: bicharacter certificate, "
                    "1 pairs, first violation (1, 1)"
                )
            failing += not check.ok
    assert failing == cases - 2
    sig = Signature(3, 2)
    masks = all_blades(sig)
    op = flipped(geometric_pair_op(sig), *((0b1, b) for b in masks))
    assert dense_first_nonassociative_triple(
        dense_regular_representation(masks, op), 0, 200
    ) is not None
    check, problem = oracle(masks, rows(op), classify_clifford(3, 2))
    assert check.detail == (
        "bicharacter certificate, 1024 pairs, first violation (e1, 1)"
    )
    assert problem == f"not a bicharacter twist: {check.detail}"


def test_not_associative_carries_first_triple():
    # b0 b0 = b0 and b1 b1 = b0 as in Cl(1,0), but b1 b0 = -b1: the first
    # failing triple in order is (1, 0, 0), with (b1 b0) b0 = b1 but
    # b1 (b0 b0) = -b1, which the verdict names as blades
    op = flipped(geometric_pair_op(Signature(1, 0)), (1, 0))
    check, problem = oracle([0, 1], rows(op), classify_clifford(1, 0))
    assert not check.ok and problem
    assert check.detail == "exhaustive triples, first violation (e1, 1, 1)"
    assert problem == f"not associative: {check.detail}"
    dense = dense_regular_representation([0, 1], op)
    assert dense_first_nonassociative_triple(dense, 0, 200) == (1, 0, 0)


def flipped_in_row(row_op, a, b):
    """``row_op`` with the sign of a·b negated in the row of ``a``: its
    bit in ``neg`` flipped wherever ``b`` is a column."""

    def flipped_row_op(x, cols):
        neg, zero = row_op(x, cols)
        if x == a and b in cols[0]:
            neg ^= 1 << cols[0].index(b)
        return neg, zero

    return flipped_row_op


def test_one_flipped_sign_in_a_row_fails_with_its_pair():
    # dim 32 searches no triples, so the verdict names the first pair off
    # the bicharacter: the flipped pair itself when it is no generator
    # pair (B is read from e_i e_j alone), and in every case the witness
    # the same flip names when made pair by pair
    sig = Signature(3, 2)
    masks = all_blades(sig)
    cls = classify_clifford(3, 2)
    for a, b in [(0b1, 0b11), (0b111, 0b11000), (0, 0b11111), (0b10101, 0b10101), (0b1, 0b10)]:
        check, problem = oracle(masks, flipped_in_row(geometric_row_op(sig), a, b), cls)
        pairwise = oracle(masks, rows(flipped(geometric_pair_op(sig), (a, b))), cls)
        assert not check.ok and problem
        assert (check, problem) == pairwise, (a, b)
        if (a & (a - 1)) or (b & (b - 1)) or not (a and b):
            assert check.detail == (
                f"bicharacter certificate, 1024 pairs, first violation {format_blades((a, b))}"
            )


def coboundary_twisted(op, blade):
    """``op`` times f(a) f(b) f(a^b), with f = -1 on ``blade`` only."""

    def f(mask):
        return -1 if mask == blade else 1

    def blade_op(a, b):
        sign, mask = op(a, b)
        return sign * f(a) * f(b) * f(a ^ b), mask

    return blade_op


def test_coboundary_twist_fails_the_certificate():
    # twisting by a coboundary keeps the product associative and the
    # algebra isomorphic to Cl(p,q) (e_a -> f(a) e_a), but from n = 3 on
    # the twist is no bicharacter: the oracle's contract is the stricter
    # one, and its verdict names the first pair whose sign differs from
    # the product over i in a, j in b of the generator signs σ(e_i, e_j)
    for sig in signatures_up_to(3):
        if sig.n < 3:
            continue
        masks = all_blades(sig)
        cls = classify_clifford(sig.p, sig.q)
        for blade in masks:
            op = coboundary_twisted(geometric_pair_op(sig), blade)
            dense = dense_regular_representation(masks, op)
            assert dense_first_nonassociative_triple(dense, 0, 200) is None
            assert dense_fingerprint(dense) == expected_invariants(cls)

            def generator_product(a, b):
                sign = 1
                for i in blade_indices(a):
                    for j in blade_indices(b):
                        sign *= op(1 << (i - 1), 1 << (j - 1))[0]
                return sign

            first = next(
                (a, b)
                for a, b in itertools.product(masks, repeat=2)
                if op(a, b)[0] != generator_product(a, b)
            )
            check, problem = oracle(masks, rows(op), cls)
            assert not check.ok and problem
            assert problem == (
                "not a bicharacter twist: bicharacter certificate, 64 pairs, "
                f"first violation {format_blades(first)}"
            ), (sig, blade)


def test_fingerprint_checks_no_associativity():
    # the sign-table reference fingerprints any table it is given: on every
    # non-associative table made by flipping one sign of the geometric
    # product with n <= 3, it equals the dense route without its
    # associativity check (center nullspace, trace form, signatures)
    non_associative = 0
    for sig in signatures_up_to(3):
        masks = all_blades(sig)
        for pair in itertools.product(masks, repeat=2):
            op = flipped(geometric_pair_op(sig), pair)
            sc = regular_representation(masks, op)
            if first_nonassociative_triple(sc, 0, 200) is None:
                continue
            non_associative += 1
            dense = dense_regular_representation(masks, op)
            assert structural_invariants(sc) == dense_fingerprint(dense), (sig, pair)
    assert non_associative == 310


# -- reference realizations ------------------------------------------------------


def test_expected_invariants_examples():
    assert expected_invariants(AlgebraClass.of("C")) == StructuralInvariants(
        2, 2, (1, 1), (1, 1)
    )
    m2c = expected_invariants(AlgebraClass.simple(2, "C"))
    assert (m2c.dim, m2c.center_dim) == (8, 2)
    hh = expected_invariants(AlgebraClass.of("H", "H"))
    assert (hh.dim, hh.center_dim, hh.trace_sig) == (8, 2, (2, 6))
    assert expected_invariants(AlgebraClass.of("H")) == StructuralInvariants(
        4, 1, (1, 3), (1, 0)
    )


def test_matrix_units_multiplication():
    sc = DenseConstants.matrix_units(2, "R")
    # E00*E01 = E01; E01*E10 = E00; E01*E01 = 0
    assert sc.table[0][1] == {1: Fraction(1)}
    assert sc.table[1][2] == {0: Fraction(1)}
    assert sc.table[1][1] == {}


def test_direct_sum_blocks_do_not_interact():
    a = DenseConstants.matrix_units(1, "C")
    s = a.direct_sum(a)
    assert s.dim == 4
    assert s.table[0][2] == {} and s.table[3][1] == {}
    inv = dense_invariants(s)
    assert inv.dim == 4 and inv.center_dim == 4


def all_table_classes(max_dim, max_n=8):
    """Every class the closed forms produce with p+q <= max_n, up to a
    dimension cap."""
    seen = set()
    for p in range(max_n + 1):
        for q in range(max_n + 1 - p):
            if 1 << (p + q) <= max_dim:
                seen.add(classify_clifford(p, q))
            if p + q >= 1 and 1 << (p + q - 1) <= max_dim:
                seen.add(classify_even_part(p, q))
            for p0 in range(p + 1):
                for q0 in range(q + 1):
                    cls = classify_even_subalgebra(p, q, p0, q0)
                    if cls.real_dim <= max_dim:
                        seen.add(cls)
    return seen


def test_fingerprint_injectivity_up_to_the_dimension_cap():
    # every class the three classifications reach with p+q <= 12 has its
    # own fingerprint, so fingerprint equality identifies the class in
    # every sweep the dimension cap allows
    classes = all_table_classes(1 << MAX_DIMENSION, MAX_DIMENSION)
    assert len(classes) >= 44  # sanity: the enumeration is not degenerate
    fingerprints = {}
    for cls in sorted(classes, key=lambda c: (c.real_dim, str(c))):
        fp = expected_invariants(cls)
        assert fp.trace_sig[0] + fp.trace_sig[1] == fp.dim  # semisimple
        assert fp not in fingerprints, f"{cls} collides with {fingerprints[fp]}"
        fingerprints[fp] = cls


def test_closed_form_matches_the_matrix_unit_references():
    # the dense fingerprint of M(m, K) built from matrix units, direct
    # summed per component, for every class up to real dimension 256
    for cls in all_table_classes(256):
        assert expected_invariants(cls) == dense_invariants(reference_constants(cls)), cls


def test_non_clifford_even_subalgebra_detected():
    # the grading of Cl(2,1) with even 1-vector signature (1,0) has even
    # subalgebra R^4, which no Clifford algebra of dimension 4 matches
    cls = classify_even_subalgebra(2, 1, 1, 0)
    assert cls == AlgebraClass.of("R", "R", "R", "R")
    fp = expected_invariants(cls)
    for r, s in [(2, 0), (1, 1), (0, 2)]:
        assert fp != expected_invariants(classify_clifford(r, s))


def fingerprinted_blade_bases():
    """(masks, blade_op) for every blade basis the verify suites
    fingerprint: table1, table2 and table4 with n <= 6, and the full
    basis under vee_alpha and vee_prime for every grading with n <= 4."""
    for sig in signatures_up_to(6):
        op = geometric_pair_op(sig)
        yield all_blades(sig), op
        if sig.n:
            yield [m for m in all_blades(sig) if not m.bit_count() & 1], op
        for p0 in range(sig.p + 1):
            for q0 in range(sig.q + 1):
                gr = Z2Grading(sig, canonical_odd_mask(sig, sig.p - p0, sig.q - q0))
                yield even_subalgebra_basis(gr), op
    for sig in signatures_up_to(4):
        for odd_mask in range(1 << sig.n):
            gr = Z2Grading(sig, odd_mask)
            yield all_blades(sig), vee_alpha_pair_op(gr)
            yield all_blades(sig), vee_prime_pair_op(gr)


def test_sign_table_fingerprints_match_the_dense_reference():
    # and so does the certificate's read of every blade it certified, which
    # takes a blade as central exactly when its aᵀ(B+Bᵀ) is 0: among these
    # bases, the whole algebra of every signature with n <= 6
    for masks, op in fingerprinted_blade_bases():
        dense = dense_invariants(dense_regular_representation(masks, op))
        got = structural_invariants(regular_representation(masks, op))
        assert got == dense, (masks, op)
        assert certify(masks, rows(op)).invariants() == dense, (masks, op)


def tabulated(sig, op):
    """``op`` read from a table of its values on every blade pair of
    ``sig``, built once: the same sign function, cheaper to call."""
    blades = range(1 << sig.n)
    table = [[op(a, b) for b in blades] for a in blades]
    return lambda a, b: table[a][b]


def test_certificate_fingerprints_match_the_sign_table_reference():
    # the fingerprint read off B equals the one read off the whole sign
    # table: the even subalgebra of every grading with n <= 7 under the
    # geometric product, and the full basis under vee_alpha and vee_prime
    # for every grading with n <= 5.  Each even subalgebra is fingerprinted
    # a third way too, off the certificate of its whole algebra
    bases = []
    for sig in signatures_up_to(7):
        op = tabulated(sig, geometric_pair_op(sig))
        whole = certify(all_blades(sig), rows(op))
        bases += [
            (even_subalgebra_basis(Z2Grading(sig, odd)), op, whole)
            for odd in range(1 << sig.n)
        ]
    for sig in signatures_up_to(5):
        for odd in range(1 << sig.n):
            gr = Z2Grading(sig, odd)
            bases += [
                (all_blades(sig), vee_alpha_pair_op(gr), None),
                (all_blades(sig), vee_prime_pair_op(gr), None),
            ]
    assert len(bases) == 1793 + 2 * 321
    subgroups = 0
    for masks, op, whole in bases:
        got, ref = fingerprints(masks, op)
        assert got == ref, (masks, op)
        if whole is not None:
            subgroups += 1
            assert whole.invariants(masks) == ref, masks
    assert subgroups == 1793


def subgroups(n):
    """Every subgroup of the blade group (Z2)^n, as a sorted mask list."""
    found, frontier = set(), [frozenset({0})]
    while frontier:
        group = frontier.pop()
        if group not in found:
            found.add(group)
            frontier += [group | {g ^ x for g in group} for x in range(1 << n) if x not in group]
    return [sorted(group) for group in found]


def test_every_subgroup_is_read_as_its_own_pass_reads_it():
    # not only even subalgebras: the read off the whole algebra's tables
    # equals a pass over the subgroup alone and the dense reference, for
    # every subgroup of the blade group (16 for n = 3, 67 for n = 4)
    assert [len(subgroups(n)) for n in range(5)] == [1, 2, 5, 16, 67]
    for sig in (Signature(3, 0), Signature(2, 1), Signature(2, 2), Signature(1, 3)):
        op = geometric_pair_op(sig)
        whole = certify(all_blades(sig), rows(op))
        for masks in subgroups(sig.n):
            got = whole.invariants(masks)
            assert got == certify(masks, rows(op)).invariants(), (sig, masks)
            assert got == dense_invariants(dense_regular_representation(masks, op)), (
                sig, masks
            )


def test_subgroup_read_rejects_what_the_pass_rejects():
    # a list that is no subgroup of the certified blades raises the same
    # exceptions as the per-basis pass, and the oracle then words the
    # failure through that pass, as if it had no certificate
    sig = Signature(2, 0)
    op = geometric_row_op(sig)
    whole = certify(all_blades(sig), op)
    assert whole.verdict.ok
    for masks in ([0b01, 0b01], []):
        with pytest.raises(NotIndependent):
            whole.invariants(masks)
    with pytest.raises(NotClosed, match="product of basis elements 1 and 2 leaves the span"):
        whole.invariants([0b00, 0b01, 0b10])
    with pytest.raises(NotClosed, match="0b100 is not among the certified blades"):
        whole.invariants([0b000, 0b100])
    cls = classify_clifford(2, 0)
    for masks in ([0b01, 0b01], [0b00, 0b01, 0b10]):
        assert oracle(masks, op, cls, certificate=whole) == oracle(masks, op, cls)
    assert oracle([0b00, 0b01, 0b10], op, cls, certificate=whole)[1]



def test_the_oracle_returns_the_certificates_verdict_itself(monkeypatch):
    # one record: oracle() hands on the certificate's own verdict, the
    # associativity check, built by certify and by no one else; from a
    # pass of its own, clean or failing, and from a subgroup read of a
    # given certificate, where no pass runs
    import cliffsig.oracle as oracle_module

    made = []
    honest = oracle_module.certify

    def keeping(masks, row_op, frame=None):
        made.append(honest(masks, row_op, frame))
        return made[-1]

    monkeypatch.setattr(oracle_module, "certify", keeping)
    sig = Signature(2, 1)
    op = geometric_row_op(sig)
    check, problem = oracle(all_blades(sig), op, classify_clifford(2, 1))
    assert len(made) == 1 and check is made[0].verdict and problem == ""
    assert check.name == "associativity" and check.ok

    whole = made.pop()
    even = [m for m in all_blades(sig) if len(blade_indices(m)) % 2 == 0]
    check, problem = oracle(even, op, classify_even_part(2, 1), certificate=whole)
    assert made == [] and check is whole.verdict and problem == ""
    check, problem = oracle(even, op, classify_clifford(2, 1), certificate=whole)
    assert made == [] and check is whole.verdict and problem.startswith("oracle ")

    bad = rows(flipped(geometric_pair_op(sig), (0b001, 0b010)))
    check, problem = oracle(all_blades(sig), bad, classify_clifford(2, 1))
    assert len(made) == 1 and check is made[0].verdict and problem is made[0].problem
    assert not check.ok and problem


def test_a_failing_pass_keeps_its_prefix():
    # a failing pass's verdict is the bare report and its problem says
    # which contract broke: "not associative: " before a failing triple,
    # "not a bicharacter twist: " before a pair off the bicharacter, and
    # no prefix before the message of a list judged unfit
    sig = Signature(2, 0)
    cases = [
        (all_blades(sig), flipped(geometric_pair_op(sig), (0b01, 0b10)), "not associative: "),
        ([0b0], flipped(geometric_pair_op(Signature(0, 0)), (0, 0)), "not a bicharacter twist: "),
        ([0b00, 0b01, 0b10], geometric_pair_op(sig), ""),
    ]
    for masks, op, prefix in cases:
        cert = certify(masks, rows(op))
        assert cert.verdict.name == "associativity" and not cert.verdict.ok, masks
        assert cert.problem == prefix + cert.verdict.detail, masks
    clean = certify(all_blades(sig), geometric_row_op(sig))
    assert clean.verdict.ok and clean.problem == ""


def test_every_certified_blade_is_read_as_the_whole_algebra(monkeypatch):
    # a list of every certified blade, in any order, is the whole algebra:
    # it reads the unit coordinates as the default does, with no GF(2)
    # basis search; any other list searches one
    import cliffsig.oracle as oracle_module

    sigs = (Signature(0, 0), Signature(2, 1), Signature(1, 3), Signature(3, 2))
    wholes = [certify(all_blades(sig), geometric_row_op(sig)) for sig in sigs]
    searches = []
    honest = oracle_module._coordinates

    def counting(masks):
        searches.append(len(masks))
        return honest(masks)

    monkeypatch.setattr(oracle_module, "_coordinates", counting)
    for sig, whole in zip(sigs, wholes):
        blades = all_blades(sig)
        orders = [blades[::-1], blades[1:] + blades[:1], sorted(blades, key=bin), iter(blades)]
        for masks in orders:
            assert whole.invariants(masks) == whole.invariants(), sig
    assert searches == []
    even = [m for m in all_blades(sigs[-1]) if len(blade_indices(m)) % 2 == 0]
    wholes[-1].invariants(even)
    assert searches == [16]
    failed = certify([], geometric_row_op(Signature(1, 0)))
    with pytest.raises(NotIndependent, match="empty basis"):
        failed.invariants([])


def test_certify_refuses_a_failing_pass():
    # a pass that fails certifies no blade: its verdict fails, and reading
    # any subgroup off it raises NotClosed, so the oracle runs its own pass
    sig = Signature(2, 0)
    cases = [
        (all_blades(sig), flipped(geometric_pair_op(sig), (0b01, 0b10)),
         "not associative: exhaustive triples, first violation (e1, e1, e2)"),
        ([0b00, 0b01, 0b10], geometric_pair_op(sig),
         "product of basis elements 1 and 2 leaves the span"),
        ([0, 1], lambda a, b: (1, a | b),
         "product (e1, e1) is not plus or minus the blade 0b0"),
        ([], geometric_pair_op(sig), "empty basis"),
    ]
    for masks, op, problem in cases:
        cert = certify(masks, rows(op))
        assert not cert.verdict.ok and cert.problem == problem, masks
        with pytest.raises(NotClosed, match="0b0 is not among the certified blades"):
            cert.invariants([0b0])


def first_pair_off_the_bicharacter(masks, op, n):
    """The first pair (x, y) of ``masks`` in row-major order whose sign
    under the blade sign function ``op`` is not (-1)^(xᵀBy), with B read
    from ``op`` on the n unit generators, which are the coordinates of
    every blade list holding them: the pass's witness, scanned pair by
    pair."""
    b = [[op(1 << i, 1 << j)[0] < 0 for j in range(n)] for i in range(n)]
    for x, y in itertools.product(masks, repeat=2):
        odd = sum(b[i][j] for i in range(n) for j in range(n) if x >> i & 1 and y >> j & 1)
        if op(x, y)[0] != (-1) ** odd:
            return x, y
    return None


def test_every_flipped_bit_fails_as_its_flipped_pair():
    # the bit path's witness order: on Cl(2,1) each of the 64 pairs flipped
    # in turn in its bit row fails the pass, with the verdict the same flip
    # gives when the rows are built pair by pair, and the pass's first pair
    # off the bicharacter is the first a scan of every pair finds
    from cliffsig.oracle import _read_bicharacter

    sig = Signature(2, 1)
    masks = all_blades(sig)
    for a, b in itertools.product(masks, repeat=2):
        row_op = flipped_in_row(geometric_row_op(sig), a, b)
        op = flipped(geometric_pair_op(sig), (a, b))
        got = certify(masks, row_op)
        want = certify(masks, rows(op))
        assert not got.verdict.ok, (a, b)
        assert (got.verdict, got.problem) == (want.verdict, want.problem), (a, b)
        witness = first_pair_off_the_bicharacter(masks, op, sig.n)
        assert witness is not None and _read_bicharacter(masks, row_op)[3] == witness, (a, b)


def test_a_kept_frame_certifies_as_a_fresh_pass():
    # every pass over one blade list may read one frame (blade_frame), which
    # holds no product: with it, certify returns what a pass building its
    # own returns, field by field, for the geometric product of every
    # signature with n <= 6, ∨ of every key (n, neg ^ odd) with n <= 5, and
    # each of the 64 flipped pairs of Cl(2,1), whose passes fail
    from cliffsig import Z2Grading, vee_alpha_row_op
    from cliffsig.oracle import blade_frame

    ops = {n: [] for n in range(7)}
    for sig in signatures_up_to(6):
        ops[sig.n].append(geometric_row_op(sig))
    for n in range(6):
        ops[n] += [vee_alpha_row_op(Z2Grading(Signature(n, 0), m)) for m in range(1 << n)]
    sig = Signature(2, 1)
    pairs = itertools.product(all_blades(sig), repeat=2)
    ops[3] += [flipped_in_row(geometric_row_op(sig), a, b) for a, b in pairs]
    verdicts = []
    for n, row_ops in ops.items():
        blades = all_blades(Signature(n, 0))
        frame = blade_frame(blades)
        for op in row_ops:
            kept, fresh = certify(blades, op, frame), certify(blades, op)
            for field, got, want in zip(fresh._fields, kept, fresh):
                assert got == want, (n, field)
            verdicts.append(fresh.verdict.ok)
    assert len(verdicts) == 28 + 63 + 64 and verdicts.count(False) == 64


def test_span_tables_transpose_b_as_the_entrywise_sum():
    # _span_tables reads Bᵀ in one pass over B's set bits; it must give
    # the span tables of the entrywise formula, row i of B+Bᵀ being
    # B's row i XOR the sum over j of bit i of row j at bit j, on random
    # k×k matrices for every k <= 12, the empty one included
    import random

    from cliffsig.oracle import _span_tables, span

    rng = random.Random(7)
    for k in range(13):
        for _ in range(40 if k else 1):
            rows = [rng.getrandbits(k) for _ in range(k)]
            sym = [
                r ^ sum((s >> i & 1) << j for j, s in enumerate(rows)) for i, r in enumerate(rows)
            ]
            assert _span_tables(rows) == (span(rows), span(sym)), (k, rows)


def _table_readers(blades, op, cols):
    """For each (chunk, entry) of the row tables of the tabled view
    ``cols``, the blades of ``blades`` whose row under ``op`` reads that
    entry, in order, as recorded by the tables themselves."""
    reads, readers = [], {}

    class Recording(list):
        def __getitem__(self, i):
            reads.append((self.chunk, i))
            return super().__getitem__(i)

    tables = cols[2]
    for chunk in range(len(tables)):
        tables[chunk] = Recording(tables[chunk])
        tables[chunk].chunk = chunk
    for a in blades:
        reads.clear()
        op(a, cols)
        for entry in reads:
            readers.setdefault(entry, []).append(a)
    for chunk in range(len(tables)):
        tables[chunk] = list(tables[chunk])
    return readers


@pytest.mark.parametrize("p, q, sample", [(2, 2, None), (4, 4, 40)])
def test_a_fault_in_a_row_table_fails_the_pass_at_its_row(p, q, sample):
    # the frame's row tables (kernels.row_tables) are built from the
    # list's planes alone, never from the coordinates the expected rows
    # read, so one bit flipped in an entry that some row reads fails the
    # pass at the first such row, named with the blade at the flipped
    # position; an entry that no row reads changes nothing.  Every bit of
    # every entry of Cl(2,2)'s one table (8 of its 16 entries are read, 128
    # faults), and a sample of Cl(4,4)'s two tables, the high one's 4
    # entries each read by 64 rows
    import random

    from cliffsig.oracle import blade_frame

    sig = Signature(p, q)
    blades, op = all_blades(sig), geometric_row_op(sig)
    frame = blade_frame(blades)
    clean = certify(blades, op, frame)
    assert clean.verdict.ok
    readers = _table_readers(blades, op, frame.cols)
    faults = [
        (chunk, entry, j)
        for chunk, table in enumerate(frame.cols[2])
        for entry in range(len(table))
        for j in range(len(blades))
    ]
    if sample is not None:
        faults = random.Random(sample).sample(faults, sample)
        faults += [(1, entry, 7) for entry in range(4)]
    failed = 0
    for chunk, entry, j in faults:
        table = frame.cols[2][chunk]
        table[entry] ^= 1 << j
        got = certify(blades, op, frame)
        table[entry] ^= 1 << j
        first = readers.get((chunk, entry))
        if first is None:
            assert got == clean, (chunk, entry, j)
            continue
        failed += 1
        pair = format_blades((first[0], blades[j]))
        assert got.verdict == (
            "associativity", False,
            f"bicharacter certificate, {len(blades) ** 2} pairs, first violation {pair}",
        ), (chunk, entry, j)
    assert certify(blades, op, frame) == clean
    if sample is None:
        assert len(readers) == 8 and failed == 128
    else:
        assert {len(readers[1, entry]) for entry in range(4)} == {64}


@pytest.mark.parametrize("p, q", [(2, 1), (0, 3)])
def test_involution_witnesses_match_a_scan_of_every_pair(p, q):
    # the doubling over B's generators decides both laws exactly: for every
    # sign vector on the 8 blades, each witness is the first failing pair
    # of a scan, None exactly when no pair fails.  2^3 of the 2^8 vectors
    # are characters and 2^3 are quadratic refinements of σ(a,b)σ(b,a)
    sig = Signature(p, q)
    blades = all_blades(sig)
    cert = certify(blades, geometric_row_op(sig))
    sign = geometric_pair_op(sig)
    holds = [0, 0]
    for bits in range(1 << len(blades)):
        s = {m: -1 if bits >> i & 1 else 1 for i, m in enumerate(blades)}
        want = (
            next(((a, b) for a in blades for b in blades if s[a ^ b] != s[a] * s[b]), None),
            next(
                (
                    (a, b)
                    for a in blades
                    for b in blades
                    if s[a ^ b] * s[a] * s[b] != sign(a, b)[0] * sign(b, a)[0]
                ),
                None,
            ),
        )
        assert cert.involution_witnesses(s, s) == want, bits
        holds = [h + (w is None) for h, w in zip(holds, want)]
    assert holds == [8, 8]
    grade = {m: len(blade_indices(m)) for m in blades}
    parity = {m: (-1) ** k for m, k in grade.items()}
    reversion = {m: (-1) ** (k * (k - 1) // 2) for m, k in grade.items()}
    assert cert.involution_witnesses(parity, reversion) == (None, None)
