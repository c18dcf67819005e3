"""Regular representation and structural fingerprints."""

import functools
import itertools
from fractions import Fraction

import pytest

from cliffsig import (
    AlgebraClass,
    NotAssociative,
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
from cliffsig.oracle import _center_basis, _trace_form
from cliffsig.verify import canonical_odd_mask, signatures_up_to

from oracles import multivector_structure_constants


# -- regular representation ----------------------------------------------------


def test_two_element_basis_of_cl10():
    sig = Signature(1, 0)
    sc = regular_representation([0b0, 0b1], geometric_blade_op(sig))
    assert sc.dim == 2
    assert sc.table[1][1] == {0: Fraction(1)}  # e1*e1 = 1
    assert sc.table[0][1] == {1: Fraction(1)}


def test_even_subalgebra_is_closed():
    sig = Signature(3, 0)
    gr = Z2Grading.from_odd_indices(sig, [3])
    sc = regular_representation(even_subalgebra_basis(gr), geometric_blade_op(sig))
    assert sc.dim == 4
    for i, j in itertools.product(range(4), repeat=2):
        assert sum(abs(v) for v in sc.table[i][j].values()) == 1


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


def test_zero_sign_gives_empty_cell():
    # a sign of 0 is no term, as in core.bilinear: the wedge of two
    # overlapping blades is 0, even though its mask is outside the basis
    sc = regular_representation([0b0, 0b1], kernels.blade_wedge)
    assert sc.table == [[{0: 1}, {1: 1}], [{1: 1}, {}]]


def test_blade_ops_match_the_multivector_products():
    # the slow construction (each constant read off the Multivector
    # product of two unit blades) agrees with the sign function, for the
    # three products the package fingerprints, over every grading n <= 4
    for sig in signatures_up_to(4):
        masks = all_blades(sig)
        assert regular_representation(masks, geometric_blade_op(sig)).table == (
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
                assert regular_representation(masks, op(gr)).table == want, (
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


def test_non_associative_detected():
    table = [[{} for _ in range(2)] for _ in range(2)]
    table[0][0] = {0: Fraction(1)}
    table[0][1] = {1: Fraction(1)}
    table[1][0] = {1: Fraction(1)}
    table[1][1] = {0: Fraction(1), 1: Fraction(1)}
    # (b1 b1) b1 = b0 b1 + b1 b1 = b0 + 2 b1; b1 (b1 b1) likewise -> tweak
    table[1][1] = {0: Fraction(1)}
    structural_invariants(StructureConstants(table))  # this one is fine (Cl(1,0))
    table[0][1] = {1: Fraction(2)}  # breaks unitality/associativity
    with pytest.raises(NotAssociative):
        structural_invariants(StructureConstants(table))


def test_not_associative_carries_first_triple():
    # b0 is a left unit but b1 b0 = 2 b1: the first failing triple in
    # order is (1, 0, 0), with (b1 b0) b0 = 4 b1 but b1 (b0 b0) = 2 b1
    table = [[{0: 1}, {1: 1}], [{1: 2}, {0: 1}]]
    with pytest.raises(NotAssociative, match=r"\(b1 b0\) b0") as info:
        structural_invariants(StructureConstants(table))
    assert info.value.triple == (1, 0, 0)


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
    sc = StructureConstants.matrix_units(2, "R")
    # E00*E01 = E01; E01*E10 = E00; E01*E01 = 0
    assert sc.table[0][1] == {1: Fraction(1)}
    assert sc.table[1][2] == {0: Fraction(1)}
    assert sc.table[1][1] == {}


def test_direct_sum_blocks_do_not_interact():
    a = StructureConstants.matrix_units(1, "C")
    s = a.direct_sum(a)
    assert s.dim == 4
    assert s.table[0][2] == {} and s.table[3][1] == {}
    inv = structural_invariants(s)
    assert inv.dim == 4 and inv.center_dim == 4


def all_table_classes(max_dim):
    """Every class the closed forms can produce, up to a dimension cap."""
    seen = set()
    for p in range(9):
        for q in range(9 - p):
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


def test_fingerprint_injectivity_up_to_dim_256():
    classes = all_table_classes(256)
    assert len(classes) >= 25  # sanity: the enumeration is not degenerate
    fingerprints = {}
    for cls in sorted(classes, key=lambda c: (c.real_dim, str(c))):
        fp = expected_invariants(cls)
        assert fp.trace_sig[0] + fp.trace_sig[1] == fp.dim  # semisimple
        assert fp not in fingerprints, f"{cls} collides with {fingerprints[fp]}"
        fingerprints[fp] = cls


def test_non_clifford_even_subalgebra_detected():
    # the grading of Cl(2,1) with even 1-vector signature (1,0) has even
    # subalgebra R^4, which no Clifford algebra of dimension 4 matches
    cls = classify_even_subalgebra(2, 1, 1, 0)
    assert cls == AlgebraClass.of("R", "R", "R", "R")
    fp = expected_invariants(cls)
    for r, s in [(2, 0), (1, 1), (0, 2)]:
        assert fp != expected_invariants(classify_clifford(r, s))


def reference_constants(cls):
    """The matrix-unit table ``expected_invariants`` fingerprints."""
    blocks = [StructureConstants.matrix_units(c.m, c.K) for c in cls.components]
    return functools.reduce(StructureConstants.direct_sum, blocks)


def table4_constants(max_n):
    for sig in signatures_up_to(max_n):
        for p0 in range(sig.p + 1):
            for q0 in range(sig.q + 1):
                gr = Z2Grading(sig, canonical_odd_mask(sig, sig.p - p0, sig.q - q0))
                yield regular_representation(
                    even_subalgebra_basis(gr), geometric_blade_op(sig)
                )


def test_int_and_fraction_constants_give_identical_fingerprints():
    # the package's tables are integral and stored as ints; wrapping every
    # constant in Fraction must not change the fingerprint, and neither
    # domain may leak a float into the trace form or the center basis
    tables = [reference_constants(cls) for cls in all_table_classes(64)]
    tables.extend(table4_constants(4))
    for sc in tables:
        values = [v for row in sc.table for cell in row for v in cell.values()]
        assert values and all(type(v) is int for v in values)
        wrapped = StructureConstants(
            [[{k: Fraction(v) for k, v in cell.items()} for cell in row] for row in sc.table]
        )
        assert structural_invariants(sc) == structural_invariants(wrapped)
        for table in (sc, wrapped):
            assert not any(type(x) is float for row in _trace_form(table) for x in row)
            assert not any(type(x) is float for v in _center_basis(table) for x in v)
