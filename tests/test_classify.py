"""Closed-form classification: periodicity tables, tensor rewrite rules,
and their internal consistency."""

import pytest

from cliffsig import (
    AlgebraClass,
    SimpleComponent,
    classify_clifford,
    classify_even_part,
    classify_even_subalgebra,
    even_subalgebra_lookup,
    tensor_simplify,
)
from cliffsig.classify import _expand
from cliffsig.core import MAX_DIMENSION


def cls(*letters):
    return AlgebraClass.of(*letters)


def M(m, K):
    return AlgebraClass.simple(m, K)


# -- classify_clifford --------------------------------------------------------


def test_clifford_named_values():
    assert classify_clifford(1, 3) == M(2, "H")
    assert classify_clifford(3, 0) == M(2, "C")
    assert classify_clifford(2, 0) == M(2, "R")
    assert classify_clifford(0, 0) == cls("R")
    assert classify_clifford(0, 1) == cls("C")
    assert classify_clifford(0, 2) == cls("H")
    assert classify_clifford(1, 0) == cls("R", "R")
    assert classify_clifford(3, 1) == M(4, "R")
    assert classify_clifford(4, 0) == M(2, "H")


def test_clifford_dimension_always_2_to_n():
    for p in range(7):
        for q in range(7 - p):
            assert classify_clifford(p, q).real_dim == 1 << (p + q)


def test_clifford_mod8_periodicity():
    # adding 8 positive generators tensors on M(16,R): the division-ring
    # letters repeat and every matrix size scales by 16
    for p in range(5):
        for q in range(5 - p):
            base = classify_clifford(p, q).components
            shifted = classify_clifford(p + 8, q).components
            assert [c.K for c in base] == [c.K for c in shifted]
            assert [16 * c.m for c in base] == [c.m for c in shifted]


# -- classify_even_part -------------------------------------------------------


def test_even_part_named_values():
    assert classify_even_part(1, 3) == M(2, "C")
    assert classify_even_part(2, 0) == cls("C")
    assert classify_even_part(1, 0) == cls("R")
    assert classify_even_part(3, 0) == cls("H")


def test_even_part_requires_positive_dimension():
    with pytest.raises(ValueError):
        classify_even_part(0, 0)


def test_even_part_identity_chain():
    # Cl+(p,q) ~ Cl(q,p-1) ~ Cl(p,q-1) ~ Cl+(q,p), each where defined
    # every nontrivial cell up to the cap, so the printed Table 4 too
    for p in range(MAX_DIMENSION + 1):
        for q in range(MAX_DIMENSION + 1 - p):
            if p + q < 1:
                continue
            even = classify_even_part(p, q)
            if p >= 1:
                assert even == classify_clifford(q, p - 1)
            if q >= 1:
                assert even == classify_clifford(p, q - 1)
            assert even == classify_even_part(q, p)


# -- tensor_simplify ----------------------------------------------------------


def test_tensor_rules():
    assert tensor_simplify(cls("C"), cls("C")) == cls("C", "C")
    assert tensor_simplify(cls("H"), cls("H")) == M(4, "R")
    assert tensor_simplify(cls("C"), cls("H")) == M(2, "C")
    assert tensor_simplify(cls("R", "R"), cls("H")) == cls("H", "H")
    assert tensor_simplify(M(2, "R"), M(3, "R")) == M(6, "R")
    assert tensor_simplify(M(2, "R"), cls("C")) == M(2, "C")
    # distribution over direct sums on both sides
    assert tensor_simplify(cls("R", "R"), cls("R", "R")) == cls("R", "R", "R", "R")


def test_tensor_dimension_is_multiplicative():
    samples = [cls("R"), cls("C"), cls("H"), M(2, "R"), cls("R", "R"), M(2, "C")]
    for x in samples:
        for y in samples:
            assert tensor_simplify(x, y).real_dim == x.real_dim * y.real_dim


def test_tensor_commutes_and_unit():
    samples = [cls("R"), cls("C"), cls("H"), M(3, "R"), cls("H", "H")]
    for x in samples:
        for y in samples:
            assert tensor_simplify(x, y) == tensor_simplify(y, x)
        assert tensor_simplify(x, cls("R")) == x


# -- even subalgebras of gradings ---------------------------------------------


def test_even_subalgebra_named_values():
    assert classify_even_subalgebra(3, 0, 2, 0) == M(2, "R")
    assert classify_even_subalgebra(1, 3, 0, 3) == cls("H", "H")
    assert classify_even_subalgebra(1, 3, 0, 0) == M(2, "C")
    # trivial grading gives back the whole algebra
    assert classify_even_subalgebra(1, 3, 1, 3) == classify_clifford(1, 3)


def test_even_subalgebra_usual_grading_reduces_to_even_part():
    for p in range(7):
        for q in range(7 - p):
            if p + q < 1:
                continue
            assert classify_even_subalgebra(p, q, 0, 0) == classify_even_part(p, q)


def test_even_subalgebra_range_errors():
    with pytest.raises(ValueError):
        classify_even_subalgebra(2, 0, 3, 0)
    with pytest.raises(ValueError):
        classify_even_subalgebra(2, 1, 0, -1)


def test_named_grading_families():
    # the gradings of Cl(3,0) give exactly H, M(2,R), C (+) C
    got = {
        classify_even_subalgebra(3, 0, p0, 0) for p0 in range(3)
    }
    assert got == {cls("H"), M(2, "R"), cls("C", "C")}
    # the nontrivial gradings of Cl(1,3) give exactly M(2,C) and H (+) H
    got = {
        classify_even_subalgebra(1, 3, p0, q0)
        for p0 in range(2)
        for q0 in range(4)
        if (p0, q0) != (1, 3)
    }
    assert got == {M(2, "C"), cls("H", "H")}


def test_lookup_agrees_with_tensor_route():
    # nontrivial cells only: the half-dimension table cannot cover the
    # trivial grading, whose even part is the whole algebra
    # every nontrivial cell up to the cap, so the printed Table 4 too
    for p in range(MAX_DIMENSION + 1):
        for q in range(MAX_DIMENSION + 1 - p):
            for p0 in range(p + 1):
                for q0 in range(q + 1):
                    if (p0, q0) == (p, q):
                        continue
                    assert even_subalgebra_lookup(p, q, p0, q0) == classify_even_subalgebra(
                        p, q, p0, q0
                    ), (p, q, p0, q0)


def test_lookup_rejects_trivial_grading():
    with pytest.raises(ValueError):
        even_subalgebra_lookup(1, 1, 1, 1)


def test_fourfold_periodicity_in_p0_minus_q0():
    # within one (p,q), cells with equal (p0-q0) mod 4 classify identically
    for p in range(7):
        for q in range(7 - p):
            by_residue = {}
            for p0 in range(p + 1):
                for q0 in range(q + 1):
                    if (p0, q0) == (p, q):
                        continue
                    r = (p0 - q0) % 4
                    cls_ = classify_even_subalgebra(p, q, p0, q0)
                    assert by_residue.setdefault(r, cls_) == cls_, (p, q, p0, q0)


def test_dimension_is_half():
    for p in range(7):
        for q in range(7 - p):
            for p0 in range(p + 1):
                for q0 in range(q + 1):
                    dim = classify_even_subalgebra(p, q, p0, q0).real_dim
                    if (p0, q0) == (p, q):
                        assert dim == 1 << (p + q)
                    else:
                        assert dim == 1 << (p + q - 1)


# -- serialization -------------------------------------------------------------


def test_string_forms():
    assert str(M(2, "H")) == "M(2,H)"
    assert str(cls("C", "C")) == "C (+) C"
    assert str(M(4, "R")) == "M(4,R)"
    assert str(tensor_simplify(cls("R", "R"), cls("H"))) == "H (+) H"


def test_multiset_equality():
    a = AlgebraClass([SimpleComponent(1, "C"), SimpleComponent(2, "R")])
    b = AlgebraClass([SimpleComponent(2, "R"), SimpleComponent(1, "C")])
    assert a == b and hash(a) == hash(b)
    assert a != AlgebraClass([SimpleComponent(1, "C"), SimpleComponent(1, "C")])


def test_component_validation():
    with pytest.raises(ValueError):
        SimpleComponent(0, "R")
    with pytest.raises(ValueError):
        SimpleComponent(1, "Q")
    with pytest.raises(ValueError):
        AlgebraClass([])


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (_expand, (("R", "R"), 4), r"dimension 4 is not m\^2 \* 2 for any integer m"),
        (classify_clifford, (-1, 2), "must be non-negative"),
        (classify_clifford, (2, -1), "must be non-negative"),
        (classify_even_part, (-1, 2), "must be non-negative"),
        (classify_even_part, (2, -1), "must be non-negative"),
        (even_subalgebra_lookup, (2, 1, 3, 0), r"\(p0,q0\)=\(3,0\) out of range for \(2,1\)"),
        (even_subalgebra_lookup, (2, 1, 0, -1), r"\(p0,q0\)=\(0,-1\) out of range"),
    ],
)
def test_input_checks(fn, args, message):
    # each refusal names what is wrong with its input
    with pytest.raises(ValueError, match=message):
        fn(*args)
