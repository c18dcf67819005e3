"""Regular representation and structural fingerprints."""

import itertools
from fractions import Fraction

import pytest

from cliffsig import (
    AlgebraClass,
    NotClosed,
    NotIndependent,
    Signature,
    StructuralInvariants,
    StructureConstants,
    Z2Grading,
    all_blades,
    classify_clifford,
    classify_even_part,
    classify_even_subalgebra,
    even_subalgebra_basis,
    expected_invariants,
    geometric_blade_op,
    geometric_product,
    regular_representation,
    structural_invariants,
    vee_alpha,
    vee_alpha_blade_op,
    vee_prime,
    vee_prime_blade_op,
)
from cliffsig import kernels
from cliffsig.core import MAX_DIMENSION
from cliffsig.oracle import first_nonassociative_triple, format_blades, oracle
from cliffsig.verify import canonical_odd_mask, signatures_up_to

from oracles import (
    DenseConstants,
    dense_first_nonassociative_triple,
    dense_fingerprint,
    dense_invariants,
    dense_regular_representation,
    multivector_structure_constants,
    reference_constants,
)


# -- regular representation ----------------------------------------------------


def cells(sc):
    """The sign/index form as {index: sign} cells, empty where the sign is 0."""
    return [
        [{k: s} if s else {} for s, k in zip(sign_row, prod_row)]
        for sign_row, prod_row in zip(sc.sign, sc.prod)
    ]


def test_two_element_basis_of_cl10():
    sig = Signature(1, 0)
    sc = regular_representation([0b0, 0b1], geometric_blade_op(sig))
    assert isinstance(sc, StructureConstants) and sc.dim == 2
    assert (sc.sign[1][1], sc.prod[1][1]) == (1, 0)  # e1*e1 = 1
    assert (sc.sign[0][1], sc.prod[0][1]) == (1, 1)


def test_even_subalgebra_is_closed():
    sig = Signature(3, 0)
    gr = Z2Grading.from_odd_indices(sig, [3])
    sc = regular_representation(even_subalgebra_basis(gr), geometric_blade_op(sig))
    assert sc.dim == 4
    for i, j in itertools.product(range(4), repeat=2):
        assert abs(sc.sign[i][j]) == 1 and 0 <= sc.prod[i][j] < 4


def test_not_closed():
    sig = Signature(2, 0)
    masks = [0b00, 0b01, 0b10]  # e1*e2 lands outside the span
    with pytest.raises(NotClosed):
        regular_representation(masks, geometric_blade_op(sig))


def test_not_independent():
    sig = Signature(1, 0)
    with pytest.raises(NotIndependent):
        regular_representation([1, 1], geometric_blade_op(sig))
    with pytest.raises(NotIndependent):
        regular_representation([], geometric_blade_op(sig))


def test_product_off_the_symmetric_difference_rejected():
    # every shortcut of the oracle rests on e_a e_b = ±e_{a^b}: e1 e1 = e1
    # is inside the span but not on the blade 0, so it is refused
    with pytest.raises(ValueError, match="basis elements 1 and 1") as info:
        regular_representation([0, 1], lambda a, b: (1, a | b))
    assert not isinstance(info.value, (NotClosed, NotIndependent))


def test_zero_sign_gives_empty_cell():
    # a sign of 0 is no term, as in core.bilinear: the wedge of two
    # overlapping blades is 0, whatever mask the sign function reports
    sc = regular_representation([0b0, 0b1], kernels.blade_wedge)
    assert sc.sign == [[1, 1], [1, 0]]
    assert sc.prod == [[0, 1], [1, -1]]


def test_blade_ops_match_the_multivector_products():
    # the slow construction (each constant read off the Multivector
    # product of two unit blades) agrees with the sign function, for the
    # three products the package fingerprints, over every grading n <= 4
    for sig in signatures_up_to(4):
        masks = all_blades(sig)
        assert cells(regular_representation(masks, geometric_blade_op(sig))) == (
            multivector_structure_constants(sig, masks, geometric_product)
        )
        for odd_mask in range(1 << sig.n):
            gr = Z2Grading(sig, odd_mask)
            for op, product in [
                (vee_alpha_blade_op, vee_alpha),
                (vee_prime_blade_op, vee_prime),
            ]:
                want = multivector_structure_constants(
                    sig, masks, lambda a, b: product(a, b, gr)
                )
                assert cells(regular_representation(masks, op(gr))) == want, (
                    gr, product.__name__
                )


# -- structural invariants -------------------------------------------------------


def quaternion_constants():
    sig = Signature(0, 2)  # Cl(0,2) is the quaternions
    masks = [0b00, 0b01, 0b10, 0b11]
    return regular_representation(masks, geometric_blade_op(sig))


def test_quaternion_fingerprint():
    inv = structural_invariants(quaternion_constants())
    assert inv == StructuralInvariants(4, 1, (1, 3), (1, 0))


def test_split_fingerprint():
    # R (+) R realized as Cl(1,0)
    sig = Signature(1, 0)
    sc = regular_representation([0, 1], geometric_blade_op(sig))
    assert structural_invariants(sc) == StructuralInvariants(2, 2, (2, 0), (2, 0))


def test_matrix_algebra_fingerprint():
    # M(2,R) realized as Cl(2,0)
    sig = Signature(2, 0)
    sc = regular_representation([0, 1, 2, 3], geometric_blade_op(sig))
    assert structural_invariants(sc) == StructuralInvariants(4, 1, (3, 1), (1, 0))


def flipped(op, *pairs):
    """``op`` with the sign of each listed blade pair negated."""

    def blade_op(a, b):
        sign, mask = op(a, b)
        return (-sign, mask) if (a, b) in pairs else (sign, mask)

    return blade_op


def test_non_associative_detected():
    # one flipped sign of the geometric product breaks the cocycle
    # identity, except three flips that stay associative: 1*1 in Cl(0,0)
    # (R with unit -1) and e1*e1 in Cl(1,0) and Cl(0,1) (they swap).  The
    # first failing triple is the dense reference's, both over every
    # triple (n <= 2, one flipped cell) and over the seeded sample (n = 5,
    # the row of e1 flipped), and the oracle's verdict names it as blades
    cases = []
    for sig in signatures_up_to(2):
        masks = all_blades(sig)
        for pair in itertools.product(masks, repeat=2):
            cases.append((masks, flipped(geometric_blade_op(sig), pair)))
    sig = Signature(3, 2)
    masks = all_blades(sig)
    cases.append((masks, flipped(geometric_blade_op(sig), *((0b1, b) for b in masks))))
    failing = 0
    for masks, op in cases:
        sc = regular_representation(masks, op)
        want = dense_first_nonassociative_triple(
            dense_regular_representation(masks, op), 0, 200
        )
        assert first_nonassociative_triple(sc, 0, 200) == want, (masks, op)
        verdict = oracle(masks, op, AlgebraClass.of("R"))
        assert verdict.associative == (want is None), (masks, op)
        if want is not None:
            failing += 1
            witness = format_blades(masks[i] for i in want)
            assert not verdict.ok
            assert verdict.associativity.endswith(f"first violation {witness}")
    assert want is not None, "the sampled n = 5 case stays associative"
    assert failing == len(cases) - 3


def test_not_associative_carries_first_triple():
    # b0 b0 = b0 and b1 b1 = b0 as in Cl(1,0), but b1 b0 = -b1: the first
    # failing triple in order is (1, 0, 0), with (b1 b0) b0 = b1 but
    # b1 (b0 b0) = -b1, which the verdict names as blades
    op = flipped(geometric_blade_op(Signature(1, 0)), (1, 0))
    verdict = oracle([0, 1], op, classify_clifford(1, 0))
    assert not verdict.associative and not verdict.ok
    assert verdict.associativity == "exhaustive triples, first violation (e1, 1, 1)"
    assert verdict.problem == f"not associative: {verdict.associativity}"
    dense = dense_regular_representation([0, 1], op)
    assert dense_first_nonassociative_triple(dense, 0, 200) == (1, 0, 0)


def test_fingerprint_checks_no_associativity():
    # structural_invariants fingerprints any table it is given: on every
    # non-associative table made by flipping one sign of the geometric
    # product with n <= 3, it equals the dense route without its
    # associativity check (center nullspace, trace form, signatures)
    non_associative = 0
    for sig in signatures_up_to(3):
        masks = all_blades(sig)
        for pair in itertools.product(masks, repeat=2):
            op = flipped(geometric_blade_op(sig), pair)
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
        op = geometric_blade_op(sig)
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
            yield all_blades(sig), vee_alpha_blade_op(gr)
            yield all_blades(sig), vee_prime_blade_op(gr)


def test_sign_table_fingerprints_match_the_dense_reference():
    for masks, op in fingerprinted_blade_bases():
        got = structural_invariants(regular_representation(masks, op))
        assert got == dense_invariants(dense_regular_representation(masks, op)), (
            masks, op
        )
