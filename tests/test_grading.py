"""Structure-preserving gradings: the parity automorphism, projections,
even-subalgebra bases, dimension dichotomy, and involution validation."""

import itertools
import random
from fractions import Fraction

import pytest

from cliffsig import (
    DichotomyViolation,
    DimensionClass,
    EigenspaceViolation,
    Multivector,
    NotInvolution,
    NotIsometry,
    Signature,
    SignatureMismatch,
    Z2Grading,
    all_blades,
    alpha,
    blade_indices,
    dimension_dichotomy_check,
    even_subalgebra_basis,
    geometric_product,
    grading_closure_check,
    parse_multivector,
    project_even,
    project_odd,
    validate_involution,
)
from cliffsig import grading, linalg
from cliffsig.cli import main


def gradings_of(sig):
    return [Z2Grading(sig, m) for m in range(1 << sig.n)]


# -- alpha -------------------------------------------------------------------


def test_alpha_trivial_is_identity():
    sig = Signature(2, 1)
    gr = Z2Grading.trivial(sig)
    a = parse_multivector("1 + e1 - 2*e2^e3", sig)
    assert alpha(a, gr) == a


def test_alpha_usual_is_grade_parity():
    sig = Signature(2, 0)
    gr = Z2Grading.usual(sig)
    e1 = Multivector.basis_vector(sig, 1)
    e12 = parse_multivector("e1^e2", sig)
    assert alpha(e1, gr) == -e1
    assert alpha(e12, gr) == e12


def test_alpha_counts_odd_factors():
    sig = Signature(2, 0)
    gr = Z2Grading.from_odd_indices(sig, [1])
    e12 = parse_multivector("e1^e2", sig)
    assert alpha(e12, gr) == -e12


def test_alpha_is_automorphism_exhaustive_small():
    # all gradings, all blade pairs, for every signature with n <= 3
    for n in range(4):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            blades = all_blades(sig)
            for gr in gradings_of(sig):
                for ma, mb in itertools.product(blades, repeat=2):
                    a = Multivector.blade(sig, ma)
                    b = Multivector.blade(sig, mb)
                    assert alpha(geometric_product(a, b), gr) == geometric_product(
                        alpha(a, gr), alpha(b, gr)
                    )


def test_alpha_squares_to_identity_and_preserves_grades():
    rng = random.Random(4)
    sig = Signature(3, 2)
    for gr in gradings_of(sig):
        for _ in range(5):
            a = Multivector(
                sig,
                {rng.randrange(32): Fraction(rng.randint(-5, 5)) for _ in range(4)},
            )
            assert alpha(alpha(a, gr), gr) == a
            for k in range(sig.n + 1):
                assert alpha(a.grade(k), gr).grades() <= {k}


def test_alpha_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        alpha(Multivector.scalar(Signature(1, 0), 1), Z2Grading.trivial(Signature(0, 1)))


# -- projections -------------------------------------------------------------


def test_projections_partition_identity():
    rng = random.Random(9)
    sig = Signature(2, 2)
    for gr in gradings_of(sig):
        one = Multivector.scalar(sig, 1)
        assert project_even(one, gr) == one  # the scalar is always even
        for _ in range(5):
            a = Multivector(
                sig,
                {rng.randrange(16): Fraction(rng.randint(-5, 5)) for _ in range(4)},
            )
            p0, p1 = project_even(a, gr), project_odd(a, gr)
            assert p0 + p1 == a
            assert project_even(p0, gr) == p0
            assert project_odd(p0, gr).is_zero()
            assert project_even(p1, gr).is_zero()


def test_projection_examples():
    sig = Signature(3, 0)
    gr_usual = Z2Grading.usual(sig)
    a = parse_multivector("1 + e1 + e1^e2 + e1^e2^e3", sig)
    assert project_even(a, gr_usual) == parse_multivector("1 + e1^e2", sig)

    gr3 = Z2Grading.from_odd_indices(sig, [3])
    v = parse_multivector("e1 + e3", sig)
    assert project_odd(v, gr3) == parse_multivector("e3", sig)


# -- even subalgebra basis and dichotomy --------------------------------------


def test_even_basis_example():
    sig = Signature(3, 0)
    gr = Z2Grading.from_odd_indices(sig, [3])
    masks = even_subalgebra_basis(gr)
    assert [blade_indices(m) for m in masks] == [(), (1,), (2,), (1, 2)]


def test_even_basis_usual_and_trivial():
    # the table sweeps fingerprint the whole algebra and its even-grade
    # part as these two even subalgebras, on the same blades in the same order
    for n in range(9):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            blades = all_blades(sig)
            assert even_subalgebra_basis(Z2Grading.trivial(sig)) == blades
            assert even_subalgebra_basis(Z2Grading.usual(sig)) == [
                m for m in blades if len(blade_indices(m)) % 2 == 0
            ]


def test_dimension_dichotomy_exhaustive():
    for n in range(7):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for gr in gradings_of(sig):
                result = dimension_dichotomy_check(gr)
                size = len(even_subalgebra_basis(gr))
                if gr.is_trivial:
                    assert result is DimensionClass.TRIVIAL
                    assert size == 1 << n
                else:
                    assert result is DimensionClass.HALF
                    assert size == 1 << (n - 1)


def test_dimension_dichotomy_mismatch_raises(monkeypatch):
    # a wrong-sized even basis must fail loudly, also under python -O
    monkeypatch.setattr(grading, "even_subalgebra_basis", lambda gr: [0])
    sig = Signature(2, 1)
    for gr in (Z2Grading.trivial(sig), Z2Grading.usual(sig)):
        with pytest.raises(DichotomyViolation):
            dimension_dichotomy_check(gr)


@pytest.mark.parametrize(
    "eigenvectors, reason",
    [
        ([], "dimensions"),
        ([[Fraction(1), Fraction(0)]], "orthogonal"),
        ([[Fraction(1), Fraction(1)]], "degenerate"),
    ],
)
def test_involution_eigenspace_checks_raise(monkeypatch, eigenvectors, reason):
    # forge the eigenspaces of the identity on Cl(1,1)'s V so each of the
    # split's guaranteed properties fails in turn
    monkeypatch.setattr(linalg, "nullspace", lambda a, cols=None: eigenvectors)
    with pytest.raises(EigenspaceViolation, match=reason):
        validate_involution(linalg.identity(2), Signature(1, 1))


def test_odd_generator_gives_even_odd_bijection():
    # left multiplication by an invertible odd generator maps the even
    # basis bijectively onto the odd blades
    sig = Signature(1, 3)
    gr = Z2Grading.from_odd_indices(sig, [1, 3])
    u = Multivector.basis_vector(sig, 1)
    evens = even_subalgebra_basis(gr)
    image = set()
    for m in evens:
        prod = geometric_product(u, Multivector.blade(sig, m))
        (mask,) = prod.terms.keys()
        assert gr.blade_parity(mask) == 1
        image.add(mask)
    assert len(image) == len(evens)


# -- closure ------------------------------------------------------------------


def test_closure_examples():
    for sig, odd in [
        (Signature(2, 1), [1, 2]),
        (Signature(1, 1), [2]),
        (Signature(3, 0), []),
        (Signature(2, 2), [1, 2, 3, 4]),
    ]:
        rep = grading_closure_check(Z2Grading.from_odd_indices(sig, odd))
        assert rep == ("closure", True, f"{(1 << sig.n) ** 2} blade pairs, 0 violations")


def test_closure_names_a_product_of_the_wrong_parity(monkeypatch, capsys):
    # e1 e2 lands on e1^e2; a blade parity that calls e1^e2 even under
    # odd = {e1} (and e2^e3 odd, so the even part keeps its dimension)
    # puts that odd·even product in the even part, so the blade parities
    # are no character: the sweep counts every pair whose product lands on
    # the wrong side and names the first, (e1, e2), and the CLI exits 1
    honest = Z2Grading.blade_parity

    def broken(self, mask):
        return honest(self, mask) ^ (mask in (0b011, 0b110))

    monkeypatch.setattr(Z2Grading, "blade_parity", broken)
    gr = Z2Grading.from_odd_indices(Signature(2, 1), [1])
    rep = grading_closure_check(gr)
    blades = all_blades(gr.sig)
    parity = {m: gr.blade_parity(m) for m in blades}
    wrong = [(a, b) for a in blades for b in blades if parity[a ^ b] != parity[a] ^ parity[b]]
    assert len(wrong) == 24 and wrong[0] == (0b001, 0b010)
    assert rep == ("closure", False, "64 blade pairs, 24 violations; first (e1, e2)")
    assert main(["grading", "--sig", "2,1", "--odd", "e1"]) == 1
    assert "closure: VIOLATED (64 blade pairs)" in capsys.readouterr().out


def test_closure_counts_its_witnesses_in_flat_memory(monkeypatch):
    # a parity that calls every blade odd, the scalar too, breaks the law
    # at each of Cl(4,4)'s 65536 pairs; the check counts them and keeps
    # the first, so its memory does not grow with the fault
    import tracemalloc

    honest = Z2Grading.blade_parity
    monkeypatch.setattr(Z2Grading, "blade_parity", lambda self, mask: honest(self, mask) | 1)
    gr = Z2Grading.from_odd_indices(Signature(4, 4), [1])
    tracemalloc.start()
    try:
        rep = grading_closure_check(gr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == ("closure", False, "65536 blade pairs, 65536 violations; first (1, 1)")
    assert peak < 1 << 20, peak


def test_closure_reads_no_product(monkeypatch):
    # the check decides the parity law on the masks every product lands
    # on, a ^ b, and calls no sign function: with every kernel gone it
    # still passes on every grading of Cl(2,1)
    import cliffsig.kernels as kernels

    for name in ("blade_mul", "blade_mul_row", "columns"):
        monkeypatch.delattr(kernels, name)
    for odd in range(8):
        assert grading_closure_check(Z2Grading(Signature(2, 1), odd)).ok


# -- involution validation ----------------------------------------------------


def F(x):
    return Fraction(x)


def test_identity_and_negative_identity():
    sig = Signature(2, 1)
    n = sig.n
    ident = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    split = validate_involution(ident, sig)
    assert split.counts() == (2, 1, 0, 0)
    neg = [[-x for x in row] for row in ident]
    split = validate_involution(neg, sig)
    assert split.counts() == (0, 0, 2, 1)


def test_swap_reflection_in_euclidean_plane():
    # swapping e1 <-> e2 in (2,0): V0 = span(e1+e2), V1 = span(e1-e2)
    sig = Signature(2, 0)
    swap = [[F(0), F(1)], [F(1), F(0)]]
    split = validate_involution(swap, sig)
    assert split.counts() == (1, 0, 1, 0)
    (v0,), (v1,) = split.even_vectors, split.odd_vectors
    assert v0[0] == v0[1] and v1[0] == -v1[1]


def test_not_involution_rejected():
    sig = Signature(2, 0)
    shear = [[F(1), F(1)], [F(0), F(1)]]
    with pytest.raises(NotInvolution):
        validate_involution(shear, sig)


def test_involution_but_not_isometry_rejected():
    sig = Signature(2, 0)
    m = [[F(1), F(1)], [F(0), F(-1)]]  # squares to identity
    with pytest.raises(NotIsometry):
        validate_involution(m, sig)
    # swapping a +1 vector with a -1 vector is not an isometry of (1,1)
    sig11 = Signature(1, 1)
    with pytest.raises(NotIsometry):
        validate_involution([[F(0), F(1)], [F(1), F(0)]], sig11)


def test_lorentz_conjugated_involution():
    # boost-conjugated reflection in (1,1): eigenvectors (2,1) and (1,2)
    sig = Signature(1, 1)
    m = [[F("5/3"), F("-4/3")], [F("4/3"), F("-5/3")]]
    split = validate_involution(m, sig)
    assert split.counts() == (1, 0, 0, 1)


@pytest.mark.parametrize(
    "sig, m, even, odd",
    [
        # swap e1 <-> e2 in (2,0): reduced-echelon eigenbases e1+e2 and -e1+e2
        (Signature(2, 0), [[0, 1], [1, 0]], ((1, 1),), ((-1, 1),)),
        # boost-conjugated reflection in (1,1): (2,1) and (1/2,1) ~ (1,2)
        (
            Signature(1, 1),
            [[F("5/3"), F("-4/3")], [F("4/3"), F("-5/3")]],
            ((2, 1),),
            ((F("1/2"), 1),),
        ),
    ],
    ids=["swap", "boost-reflection"],
)
def test_eigenvectors_are_exact_fractions(sig, m, even, odd):
    # the elimination stores integral entries as ints; the split must
    # still hand out Fraction coordinates, as InvolutionSplit declares
    split = validate_involution(m, sig)
    assert split.even_vectors == even and split.odd_vectors == odd
    for v in split.even_vectors + split.odd_vectors:
        assert all(type(x) is Fraction for x in v)


def _plane_rotation(n, i, j, c, s):
    m = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    m[i][i] = c
    m[j][j] = c
    m[i][j] = -s
    m[j][i] = s
    return m


def _plane_boost(n, i, j, c, s):
    m = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    m[i][i] = c
    m[j][j] = c
    m[i][j] = s
    m[j][i] = s
    return m


def random_rational_isometry(rng, sig):
    """Product of rational rotations (within a sign block) and rational
    boosts (across blocks): 3-4-5 circles and 5-4-3 hyperbolas.  Returns
    the isometry and its inverse, the inverse steps in reverse order:
    a rotation or boost by (c, s) is undone by the same step with (c, -s)."""
    n = sig.n
    rotations = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))]
    boosts = [(Fraction(5, 3), Fraction(4, 3)), (Fraction(13, 5), Fraction(12, 5))]
    m = linalg.identity(n)
    inv = linalg.identity(n)
    for _ in range(4):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        same_block = (i < sig.p) == (j < sig.p)
        plane_step = _plane_rotation if same_block else _plane_boost
        c, s = rng.choice(rotations if same_block else boosts)
        m = linalg.mat_mul(plane_step(n, i, j, c, s), m)
        inv = linalg.mat_mul(inv, plane_step(n, i, j, c, -s))
    return m, inv


@pytest.mark.parametrize("p,q", [(2, 1), (1, 3), (3, 1)])
def test_conjugated_involutions_recover_basis_aligned_counts(p, q):
    # every isometric involution should validate to the same (p0,q0,p1,q1)
    # as the basis-aligned grading it is conjugate to
    rng = random.Random(100 * p + q)
    sig = Signature(p, q)
    n = sig.n
    for odd_mask in range(1 << n):
        gr = Z2Grading(sig, odd_mask)
        diag = [
            [
                Fraction(-1 if (i == j and odd_mask >> i & 1) else int(i == j))
                for j in range(n)
            ]
            for i in range(n)
        ]
        qmat, qinv = random_rational_isometry(rng, sig)
        assert linalg.mat_eq(linalg.mat_mul(qmat, qinv), linalg.identity(n))
        conj = linalg.mat_mul(qmat, linalg.mat_mul(diag, qinv))
        split = validate_involution(conj, sig)
        assert split.counts() == gr.counts()


def test_involution_shape_check():
    with pytest.raises(ValueError):
        validate_involution([[F(1)]], Signature(2, 0))
