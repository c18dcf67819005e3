"""Core multivector arithmetic against the brute-force oracles."""

import copy
import inspect
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsig import (
    AlgebraClass,
    Multivector,
    Signature,
    SignatureMismatch,
    SimpleComponent,
    StructuralInvariants,
    Z2Grading,
    all_blades,
    alpha,
    blade_from_indices,
    blade_product,
    extended_metric,
    geometric_product,
    grade_projection,
    kernels,
    left_contraction,
    parity,
    project_even,
    project_odd,
    reversion,
    right_contraction,
    wedge,
)
from cliffsig.core import even_grade_part, odd_grade_part
from cliffsig.oracle import CheckResult
from cliffsig.sigchange import vee_alpha, vee_prime
from oracles import (
    from_multivector,
    geometric_pair_op,
    naive_blade_product,
    naive_gp,
    naive_left_contraction,
    naive_right_contraction,
    ref_add,
    ref_bilinear,
    ref_extended_metric,
    ref_reweight,
    ref_scale,
    to_multivector,
    vee_alpha_pair_op,
    vee_prime_pair_op,
)


def mv(text, sig):
    from cliffsig import parse_multivector

    return parse_multivector(text, sig)


def basis(sig, i):
    return Multivector.basis_vector(sig, i)


# -- blade_product -----------------------------------------------------------


def test_blade_product_examples():
    sig = Signature(1, 0)
    assert blade_product(0b1, 0b1, sig) == (1, 0)  # e1*e1 = +1
    sig = Signature(1, 1)
    assert blade_product(0b10, 0b10, sig) == (-1, 0)  # e2*e2 = -1
    sig = Signature(2, 0)
    # (e1e2)*e2 = e1, computed by the transposition-count oracle
    assert naive_blade_product((1, 2), (2,), 2, 0) == (1, (1,))
    assert blade_product(0b11, 0b10, sig) == (1, 0b01)


def test_blade_product_range_check():
    sig = Signature(1, 1)
    with pytest.raises(ValueError):
        blade_product(0b100, 0b1, sig)


def test_blade_product_oracle_randomized():
    rng = random.Random(3)
    for _ in range(2000):
        p = rng.randint(0, 8)
        q = rng.randint(0, 8 - p)
        sig = Signature(p, q)
        a = rng.randrange(1 << sig.n) if sig.n else 0
        b = rng.randrange(1 << sig.n) if sig.n else 0
        from cliffsig import blade_indices

        sign, mask = blade_product(a, b, sig)
        want = naive_blade_product(blade_indices(a), blade_indices(b), p, q)
        assert (sign, blade_indices(mask)) == want


# -- geometric product -------------------------------------------------------


def test_gp_orthogonal_vectors_wedge():
    sig = Signature(2, 0)
    e1, e2 = basis(sig, 1), basis(sig, 2)
    assert geometric_product(e1, e2) == wedge(e1, e2)


def test_gp_annihilator():
    sig = Signature(1, 0)
    one = Multivector.scalar(sig, 1)
    e1 = basis(sig, 1)
    assert geometric_product(one + e1, one - e1).is_zero()


def test_gp_matches_naive_randomized():
    rng = random.Random(11)
    sig = Signature(2, 2)
    for _ in range(200):
        a = {
            tuple(sorted(rng.sample(range(1, 5), rng.randint(0, 4)))): Fraction(
                rng.randint(-5, 5), rng.randint(1, 4)
            )
            for _ in range(3)
        }
        b = {
            tuple(sorted(rng.sample(range(1, 5), rng.randint(0, 4)))): Fraction(
                rng.randint(-5, 5), rng.randint(1, 4)
            )
            for _ in range(3)
        }
        got = geometric_product(to_multivector(a, sig), to_multivector(b, sig))
        assert from_multivector(got) == naive_gp(a, b, 2, 2)


def test_gp_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        geometric_product(
            Multivector.scalar(Signature(1, 0), 1),
            Multivector.scalar(Signature(0, 1), 1),
        )


def test_vector_decomposition_v_times_a():
    # v a = v ^ a + v <| a, exactly, for random vectors and multivectors
    rng = random.Random(5)
    sig = Signature(1, 3)
    for _ in range(300):
        v = Multivector(
            sig, {1 << k: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for k in range(4)}
        )
        a = Multivector(
            sig,
            {
                rng.randrange(16): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(4)
            },
        )
        assert geometric_product(v, a) == wedge(v, a) + left_contraction(v, a)


def test_grade_bookkeeping():
    # product of a j-vector and k-vector lives in |j-k|, |j-k|+2, ..., j+k
    sig = Signature(2, 2)
    for ma, mb in itertools.product(all_blades(sig), repeat=2):
        j, k = bin(ma).count("1"), bin(mb).count("1")
        prod = geometric_product(Multivector.blade(sig, ma), Multivector.blade(sig, mb))
        allowed = set(range(abs(j - k), j + k + 1, 2))
        assert prod.grades() <= allowed


# -- wedge -------------------------------------------------------------------


def test_wedge_antisymmetry_on_vectors():
    sig = Signature(3, 0)
    e1, e2 = basis(sig, 1), basis(sig, 2)
    assert wedge(e2, e1) == -wedge(e1, e2)
    assert wedge(e1, e1).is_zero()


def test_wedge_multilinearity_example():
    # (e1+e2) ^ (e1^e2) = 0, expanded by multilinearity
    sig = Signature(3, 0)
    e1, e2 = basis(sig, 1), basis(sig, 2)
    assert wedge(e1 + e2, wedge(e1, e2)).is_zero()


def test_wedge_grades():
    sig = Signature(2, 1)
    for ma, mb in itertools.product(all_blades(sig), repeat=2):
        w = wedge(Multivector.blade(sig, ma), Multivector.blade(sig, mb))
        j, k = bin(ma).count("1"), bin(mb).count("1")
        assert w.grades() <= {j + k}


# -- contractions ------------------------------------------------------------


def test_contraction_examples_frozen_from_oracle():
    sig = Signature(2, 0)
    e1, e2 = basis(sig, 1), basis(sig, 2)
    assert left_contraction(e1, wedge(e1, e2)) == e2

    # vector contracted onto a scalar vanishes (grade would go negative)
    assert left_contraction(e1, Multivector.scalar(sig, 3)).is_zero()

    # in (1,1) the adjointness oracle gives e2 <| (e1^e2) = +e1 and the
    # RIGHT contraction (e1^e2) |> e2 = -e1
    sig = Signature(1, 1)
    e1, e2 = basis(sig, 1), basis(sig, 2)
    assert left_contraction(e2, wedge(e1, e2)) == e1
    assert right_contraction(wedge(e1, e2), e2) == -e1
    assert from_multivector(left_contraction(e2, wedge(e1, e2))) == naive_left_contraction(
        {(2,): Fraction(1)}, {(1, 2): Fraction(1)}, 1, 1
    )


@pytest.mark.parametrize("p,q", [(3, 0), (1, 2), (0, 3), (2, 2)])
def test_contractions_match_naive_oracle(p, q):
    sig = Signature(p, q)
    from cliffsig import blade_indices

    for ma, mb in itertools.product(all_blades(sig), repeat=2):
        a = {blade_indices(ma): Fraction(1)}
        b = {blade_indices(mb): Fraction(1)}
        got_l = left_contraction(Multivector.blade(sig, ma), Multivector.blade(sig, mb))
        assert from_multivector(got_l) == naive_left_contraction(a, b, p, q)
        got_r = right_contraction(Multivector.blade(sig, ma), Multivector.blade(sig, mb))
        assert from_multivector(got_r) == naive_right_contraction(a, b, p, q)


@pytest.mark.parametrize("p,q", [(2, 1), (1, 2), (3, 0)])
def test_adjointness_exhaustive(p, q):
    # g(a <| b, c) = g(b, rev(a) ^ c) and g(b |> a, c) = g(b, c ^ rev(a))
    sig = Signature(p, q)
    blades = [Multivector.blade(sig, m) for m in all_blades(sig)]
    for a, b, c in itertools.product(blades, repeat=3):
        assert extended_metric(left_contraction(a, b), c) == extended_metric(
            b, wedge(reversion(a), c)
        )
        assert extended_metric(right_contraction(b, a), c) == extended_metric(
            b, wedge(c, reversion(a))
        )


# -- grade projection and involutions ----------------------------------------


def test_grade_projection_examples():
    sig = Signature(2, 0)
    a = mv("3 + e1 + 2*e1^e2", sig)
    assert grade_projection(a, 2) == mv("2*e1^e2", sig)
    assert grade_projection(a, 1) == mv("e1", sig)
    assert grade_projection(mv("e1^e2", sig), 1).is_zero()
    assert grade_projection(a, -1).is_zero()
    assert grade_projection(a, 5).is_zero()
    assert sum(
        (grade_projection(a, k) for k in range(sig.n + 1)), Multivector.zero(sig)
    ) == a


def test_parity_reversion_examples():
    sig = Signature(2, 0)
    e1 = basis(sig, 1)
    e12 = mv("e1^e2", sig)
    s = Multivector.scalar(sig, Fraction(7, 3))
    assert parity(e12) == e12
    assert parity(e1) == -e1
    assert reversion(e12) == -e12
    assert reversion(s) == s


def test_involution_laws_randomized():
    rng = random.Random(23)
    sig = Signature(2, 3)
    for _ in range(200):
        terms_a = {
            rng.randrange(32): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(4)
        }
        terms_b = {
            rng.randrange(32): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(4)
        }
        a = Multivector(sig, terms_a)
        b = Multivector(sig, terms_b)
        assert parity(parity(a)) == a
        assert reversion(reversion(a)) == a
        ab = geometric_product(a, b)
        assert parity(ab) == geometric_product(parity(a), parity(b))
        assert reversion(ab) == geometric_product(reversion(b), reversion(a))


# -- extended metric ---------------------------------------------------------


def test_extended_metric_examples():
    sig = Signature(2, 0)
    e12 = mv("e1^e2", sig)
    assert extended_metric(e12, e12) == 1
    assert extended_metric(basis(sig, 1), e12) == 0
    sig = Signature(1, 1)
    e12 = mv("e1^e2", sig)
    assert extended_metric(e12, e12) == -1


def test_extended_metric_against_gram_determinant():
    # bilinear fast path vs cofactor-determinant oracle on random simple
    # k-vectors (built as wedges of random 1-vectors)
    rng = random.Random(17)
    p, q = 2, 2
    sig = Signature(p, q)
    for _ in range(100):
        k = rng.randint(1, 3)
        us = [
            [Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(k)
        ]
        vs = [
            [Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(k)
        ]

        def vec(coords):
            return Multivector(sig, {1 << i: c for i, c in enumerate(coords)})

        def wedge_all(vecs):
            out = Multivector.scalar(sig, 1)
            for v in vecs:
                out = wedge(out, vec(v))
            return out

        from oracles import cofactor_det, g_vec

        gram = [
            [
                sum(
                    (u[i] * g_vec(i + 1, j + 1, p, q) * v[j] for i in range(4) for j in range(4)),
                    Fraction(0),
                )
                for v in vs
            ]
            for u in us
        ]
        assert extended_metric(wedge_all(us), wedge_all(vs)) == cofactor_det(gram)


def test_extended_metric_symmetry():
    rng = random.Random(29)
    sig = Signature(1, 2)
    for _ in range(200):
        a = Multivector(
            sig, {rng.randrange(8): Fraction(rng.randint(-5, 5)) for _ in range(3)}
        )
        b = Multivector(
            sig, {rng.randrange(8): Fraction(rng.randint(-5, 5)) for _ in range(3)}
        )
        assert extended_metric(a, b) == extended_metric(b, a)


# -- generator relations and associativity (unit scale; sweeps in acceptance)


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (0, 2), (2, 1), (1, 3)])
def test_generator_relations(p, q):
    sig = Signature(p, q)
    for i in range(1, sig.n + 1):
        for j in range(1, sig.n + 1):
            ei, ej = basis(sig, i), basis(sig, j)
            want = Multivector.scalar(sig, 2 * (sig.metric(i) if i == j else 0))
            assert geometric_product(ei, ej) + geometric_product(ej, ei) == want


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (1, 2)])
def test_associativity_exhaustive_blades(p, q):
    sig = Signature(p, q)
    blades = [Multivector.blade(sig, m) for m in all_blades(sig)]
    for a, b, c in itertools.product(blades, repeat=3):
        assert geometric_product(geometric_product(a, b), c) == geometric_product(
            a, geometric_product(b, c)
        )


@st.composite
def multivectors(draw, sig):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mask = draw(st.integers(0, sig.full_mask))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 6))
        terms[mask] = terms.get(mask, Fraction(0)) + Fraction(num, den)
    return Multivector(sig, terms)


SIG31 = Signature(3, 1)


@settings(max_examples=150, deadline=None)
@given(multivectors(SIG31), multivectors(SIG31), multivectors(SIG31))
def test_associativity_property(a, b, c):
    assert geometric_product(geometric_product(a, b), c) == geometric_product(
        a, geometric_product(b, c)
    )


@settings(max_examples=150, deadline=None)
@given(multivectors(SIG31), multivectors(SIG31))
def test_distributivity_property(a, b):
    c = Multivector.scalar(SIG31, Fraction(1, 2))
    assert geometric_product(a + b, c) == geometric_product(a, c) + geometric_product(b, c)
    assert wedge(a, b + b) == wedge(a, b) + wedge(a, b)


def test_operators_equal_their_named_functions():
    # each operator is a short way to call a named product or sum; an
    # operand that is no multivector or exact scalar is refused
    sig = Signature(2, 1)
    a, b = mv("1/2 + e1 - 3*e2^e3", sig), mv("-2*e1 + e3 + e1^e2^e3", sig)
    two, one = Multivector.scalar(sig, 2), Multivector.scalar(sig, 1)
    assert a * b == geometric_product(a, b) != geometric_product(b, a)
    assert a ^ b == wedge(a, b) != wedge(b, a)
    assert 2 ^ a == wedge(two, a) == a * 2
    assert 1 - a == one - a == -(a - 1)
    assert bool(a) is True and bool(a - a) is False and bool(Multivector(sig)) is False
    with pytest.raises(TypeError):
        a / b
    with pytest.raises(TypeError):
        a + "x"


def test_multivector_immutability_and_canonical_form():
    sig = Signature(1, 1)
    a = Multivector(sig, {0: Fraction(1), 1: Fraction(0)})
    assert 1 not in a.terms  # zero coefficients are dropped
    with pytest.raises(AttributeError):
        a.sig = Signature(2, 0)
    with pytest.raises(TypeError):
        a.terms[0] = Fraction(2)


@pytest.mark.parametrize("coeff", [0.1, 1.0, "1/3", None, 1j])
def test_inexact_coefficients_rejected(coeff):
    # no floating point anywhere: a float, a string or anything else that
    # is not an int or a Fraction is refused, never converted
    sig = Signature(1, 0)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Multivector(sig, {0: coeff})
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Multivector.scalar(sig, coeff)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Multivector.blade(sig, 0b1, coeff)


def test_exact_coefficients_accepted():
    sig = Signature(1, 0)
    assert Multivector(sig, {1: 2}).terms == {1: Fraction(2)}
    assert Multivector.scalar(sig, Fraction(1, 3)).terms == {0: Fraction(1, 3)}
    assert Multivector.blade(sig, 0b1, -1).terms == {1: Fraction(-1)}
    assert all(type(c) is Fraction for c in Multivector(sig, {0: 5}).terms.values())


def test_scalar_multivector_hashes_like_its_value():
    # == promotes a scalar, so the hash must agree with the scalar's
    sig = Signature(2, 1)
    for value in (0, 3, -1, Fraction(5, 7)):
        a = Multivector.scalar(sig, value)
        assert a == value
        assert hash(a) == hash(value)
        assert len({a, value}) == 1
    assert hash(Multivector.zero(sig)) == hash(0)
    b = Multivector(sig, {0: 3, 1: 1})
    assert b != 3 and len({b, 3}) == 2


# -- canonical form against the Fraction-dict reference ---------------------


@st.composite
def mask_terms(draw, sig):
    """{mask: Fraction} with zero coefficients dropped, as a reference value."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        mask = draw(st.integers(0, sig.full_mask))
        c = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
        terms[mask] = terms.get(mask, Fraction(0)) + c
    return {m: c for m, c in terms.items() if c}


def assert_canonical(x):
    num, den = x._num, x._den
    assert type(den) is int and den >= 1
    assert all(type(n) is int and n for n in num.values())
    assert math.gcd(den, *num.values()) == 1
    assert all(type(c) is Fraction for c in x.terms.values())


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_operations_match_the_fraction_reference(data):
    sig = data.draw(st.sampled_from([Signature(0, 0), Signature(2, 0), Signature(1, 2), SIG31]))
    gr = Z2Grading(sig, data.draw(st.integers(0, sig.full_mask)))
    A, B = data.draw(mask_terms(sig)), data.draw(mask_terms(sig))
    f = Fraction(data.draw(st.integers(-40, 40)), data.draw(st.integers(1, 40)))
    k = data.draw(st.integers(-1, sig.n + 1))
    a, b = Multivector(sig, A), Multivector(sig, B)
    neg = sig.neg_mask

    def alpha_parity(m):
        return kernels.grade(m & gr.odd_mask) & 1

    cases = [
        (a, A),
        (geometric_product(a, b), ref_bilinear(A, B, geometric_pair_op(sig))),
        (wedge(a, b), ref_bilinear(A, B, kernels.blade_wedge)),
        (
            left_contraction(a, b),
            ref_bilinear(A, B, lambda x, y: kernels.blade_left_contract(x, y, neg)),
        ),
        (
            right_contraction(a, b),
            ref_bilinear(A, B, lambda x, y: kernels.blade_right_contract(x, y, neg)),
        ),
        (vee_alpha(a, b, gr), ref_bilinear(A, B, vee_alpha_pair_op(gr))),
        (vee_prime(a, b, gr), ref_bilinear(A, B, vee_prime_pair_op(gr))),
        (a + b, ref_add(A, B)),
        (a - b, ref_add(A, ref_scale(B, -1))),
        (a - a, {}),
        (-a, ref_scale(A, -1)),
        (a + f, ref_add(A, {0: f} if f else {})),
        (a * f, ref_scale(A, f)),
        (f * a, ref_scale(A, f)),
        (a * 0, {}),
        (grade_projection(a, k), ref_reweight(A, lambda m: 1 if kernels.grade(m) == k else 0)),
        (even_grade_part(a), ref_reweight(A, lambda m: 0 if kernels.grade(m) & 1 else 1)),
        (odd_grade_part(a), ref_reweight(A, lambda m: 1 if kernels.grade(m) & 1 else 0)),
        (parity(a), ref_reweight(A, lambda m: -1 if kernels.grade(m) & 1 else 1)),
        (reversion(a), ref_reweight(A, lambda m: -1 if kernels.grade(m) // 2 & 1 else 1)),
        (alpha(a, gr), ref_reweight(A, lambda m: -1 if alpha_parity(m) else 1)),
        (project_even(a, gr), ref_reweight(A, lambda m: 0 if alpha_parity(m) else 1)),
        (project_odd(a, gr), ref_reweight(A, alpha_parity)),
    ]
    if f:
        cases.append((a / f, ref_scale(A, 1 / f)))
    for got, want in cases:
        assert dict(got.terms) == want
        assert_canonical(got)
        assert got == Multivector(sig, want)
        assert hash(got) == hash(Multivector(sig, want))
    want = ref_extended_metric(A, B, lambda m: kernels.blade_metric_sign(m, neg))
    assert extended_metric(a, b) == want
    assert type(extended_metric(a, b)) is Fraction
    assert a.scalar_part() == A.get(0, 0) and type(a.scalar_part()) is Fraction


def test_product_result_masks_are_range_checked():
    # the constructor refuses an out-of-range mask; a product cannot make
    # one, since it reads rows and puts each term on ma ^ mb
    sig = Signature(2, 0)
    with pytest.raises(ValueError, match="out of range"):
        Multivector(sig, {0b100: 1})


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 0)
    with pytest.raises(ValueError):
        Signature(7, 6)  # beyond the cap
    assert Signature(6, 6).n == 12


@pytest.mark.parametrize(
    "cls, args, other, text, bad",
    [
        (Signature, (2, 1), (1, 2), "Signature(p=2, q=1)", [(-1, 0), (7, 6)]),
        (
            Z2Grading,
            (Signature(2, 1), 0b101),
            (Signature(2, 1), 0b100),
            "Z2Grading(sig=Signature(p=2, q=1), odd_mask=5)",
            [(Signature(2, 1), 0b1000)],
        ),
        (SimpleComponent, (2, "H"), (2, "C"), "SimpleComponent(m=2, K='H')", [(0, "R"), (1, "O")]),
        (
            AlgebraClass,
            ((SimpleComponent(1, "H"), SimpleComponent(2, "R")),),
            ((SimpleComponent(1, "H"),),),
            "AlgebraClass(M(2,R) (+) H)",
            [((),)],
        ),
        (
            Multivector,
            (Signature(2, 1), {0b001: Fraction(1, 2), 0b110: -3}),
            (Signature(2, 1), {0b001: Fraction(1, 2)}),
            "<1/2*e1 - 3*e2^e3 :: Cl(2,1)>",
            [(Signature(2, 1), {0b1000: 1})],
        ),
        (
            StructuralInvariants,
            (4, 1, (1, 3), (1, 0)),
            (4, 1, (3, 1), (1, 0)),
            "StructuralInvariants(dim=4, center_dim=1, trace_sig=(1, 3), center_trace_sig=(1, 0))",
            [],
        ),
        (
            CheckResult,
            ("associativity", True, "ok"),
            ("associativity", False, "ok"),
            "CheckResult(name='associativity', ok=True, detail='ok')",
            [],
        ),
    ],
    ids=[
        "Signature",
        "Z2Grading",
        "SimpleComponent",
        "AlgebraClass",
        "Multivector",
        "StructuralInvariants",
        "CheckResult",
    ],
)
def test_value_types_and_records(cls, args, other, text, bad):
    # the five value classes are __slots__ classes sharing one base,
    # core.Frozen, and equal only to their own kind; result records are
    # NamedTuples, equal to the plain tuple of their fields.  Both are
    # immutable (no field can be assigned or deleted), built positionally
    # or by keyword, equal and hashed by value, copied, deep-copied and
    # pickled to an equal value, and shown by their repr text
    record = issubclass(cls, tuple)
    fields = cls._fields if record else cls.__slots__
    names = list(inspect.signature(cls).parameters)[: len(args)]
    x, y = cls(*args), cls(**dict(zip(names, args)))
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y) == text
    for z in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert z == x and hash(z) == hash(x) and repr(z) == text
    assert x != cls(*other)
    assert (x == args) is record and x.__eq__(args) is (True if record else NotImplemented)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert x == y and hash(x) == hash(y)
    for wrong in bad:
        with pytest.raises(ValueError):
            cls(*wrong)
        with pytest.raises(ValueError):
            cls(**dict(zip(names, wrong)))


def test_all_blades_returns_a_new_list():
    # the canonical order is sorted once per n; a caller that mutates the
    # list it was given cannot change the next caller's
    sig = Signature(2, 1)
    first = all_blades(sig)
    want = list(first)
    first.reverse()
    first.append(99)
    assert all_blades(sig) == want == [0, 1, 2, 4, 3, 5, 6, 7]


E1 = Multivector.basis_vector(Signature(2, 0), 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Signature(2, 1).check_index(4), ValueError, r"e4 out of range for Cl\(2,1\)"),
        (lambda: Signature(2, 1).check_index(0), ValueError, "e0 out of range"),
        (lambda: blade_from_indices([0]), ValueError, "basis index e0 must be positive"),
        (lambda: blade_from_indices([2, 1, 2]), ValueError, "repeated basis index e2"),
        # a foreign operand, on either side, is handed back to Python
        (lambda: E1 - 0.5, TypeError, "for -: 'Multivector' and 'float'"),
        (lambda: 0.5 - E1, TypeError, "for -: 'float' and 'Multivector'"),
        (lambda: E1 * 0.5, TypeError, r"for \*: 'Multivector' and 'float'"),
        (lambda: 0.5 * E1, TypeError, r"for \*: 'float' and 'Multivector'"),
        (lambda: E1 ^ 0.5, TypeError, r"for \^: 'Multivector' and 'float'"),
        (lambda: 0.5 ^ E1, TypeError, r"for \^: 'float' and 'Multivector'"),
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
