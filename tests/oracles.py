"""Independent brute-force oracles used to compute frozen expected values.

Everything here is built from first principles on index TUPLES, not
bitmasks: blade products by bubble-sort transposition counting, the
extended metric by cofactor-expansion Gram determinants, contractions by
solving the adjointness relation coefficient by coefficient.  No code is
shared with the package, so agreement is meaningful.

Four sections are exceptions.  The pair references are the package's
products one blade pair at a time, built on ``kernels.blade_mul``, so
they check the package's row functions, not its kernel.  The
Fraction-dict reference for the multivector arithmetic takes such pair
functions, so it checks how a product reads rows and the
integer-numerator representation, not the blade signs.
The sign-table reference stores a product's dim**2 signs and reads its
fingerprint and associativity off the table; the package's oracle reads
the same numbers off a certified bicharacter and keeps no table.  The
dense fingerprint reference at the end calls ``cliffsig.linalg`` for its
center nullspace and its congruence signature; the oracle uses neither.
The definition reference reads the package's wedge and contraction
kernels pair by pair, so it checks how ``verify_clifford_map`` caches and
compares whole rows, not the kernels.  The seeded draws
``random_multivector`` and ``random_vector`` are inputs to the randomized
tests, not references, and return package multivectors.
"""

import functools
import itertools
import random
from fractions import Fraction

from cliffsig import NotClosed

Terms = dict[tuple[int, ...], Fraction]  # index tuple -> coefficient


def naive_blade_product(ia, ib, p=0, q=0, neg=None):
    """(sign, index tuple): bubble-sort the concatenated index sequence,
    counting transpositions and collapsing equal neighbours via e_i^2.

    ``neg`` is the set of indices squaring to -1; it defaults to the
    last q of the p+q indices."""
    neg = set(range(p + 1, p + q + 1) if neg is None else neg)
    seq = list(ia) + list(ib)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(seq) - 1:
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
            elif seq[i] == seq[i + 1]:
                if seq[i] in neg:
                    sign = -sign
                del seq[i : i + 2]
                changed = True
            else:
                i += 1
    return sign, tuple(seq)


def naive_gp(a: Terms, b: Terms, p, q) -> Terms:
    out: Terms = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            sign, idx = naive_blade_product(ia, ib, p, q)
            out[idx] = out.get(idx, Fraction(0)) + sign * ca * cb
    return {k: v for k, v in out.items() if v}


def naive_wedge(a: Terms, b: Terms, p, q) -> Terms:
    """Exterior product: the top-grade part of the naive product, i.e.
    nonzero only for disjoint index sets (where no e_i^2 can fire)."""
    out: Terms = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            if set(ia) & set(ib):
                continue
            sign, idx = naive_blade_product(ia, ib, p, q)
            assert len(idx) == len(ia) + len(ib)
            out[idx] = out.get(idx, Fraction(0)) + sign * ca * cb
    return {k: v for k, v in out.items() if v}


def cofactor_det(m) -> Fraction:
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        total += -term if j & 1 else term
    return total


def g_vec(i, j, p, q) -> Fraction:
    if i != j:
        return Fraction(0)
    return Fraction(1 if i <= p else -1)


def naive_blade_metric(ia, ib, p, q) -> Fraction:
    """g on basis blades: Gram determinant of the two index lists."""
    if len(ia) != len(ib):
        return Fraction(0)
    gram = [[g_vec(i, j, p, q) for j in ib] for i in ia]
    return cofactor_det(gram)


def naive_metric(a: Terms, b: Terms, p, q) -> Fraction:
    total = Fraction(0)
    for ia, ca in a.items():
        for ib, cb in b.items():
            total += ca * cb * naive_blade_metric(ia, ib, p, q)
    return total


def naive_reversion(a: Terms) -> Terms:
    return {
        idx: -c if (len(idx) // 2) & 1 else c
        for idx, c in a.items()
    }


def all_index_tuples(n):
    out = [()]
    for i in range(1, n + 1):
        out = out + [t + (i,) for t in out]
    return sorted(out, key=lambda t: (len(t), t))


def naive_left_contraction(a: Terms, b: Terms, p, q) -> Terms:
    """Solve g(a ⌟ b, c) = g(b, reversion(a) ^ c) over the blade basis:
    each candidate blade's coefficient is the pairing divided by the
    blade's own (never zero) self-pairing."""
    n = p + q
    rev_a = naive_reversion(a)
    out: Terms = {}
    for idx in all_index_tuples(n):
        c = {idx: Fraction(1)}
        rhs = naive_metric(b, naive_wedge(rev_a, c, p, q), p, q)
        if rhs:
            out[idx] = rhs / naive_blade_metric(idx, idx, p, q)
    return {k: v for k, v in out.items() if v}


def naive_right_contraction(b: Terms, a: Terms, p, q) -> Terms:
    """Same scheme for g(b ⌞ a, c) = g(b, c ^ reversion(a))."""
    n = p + q
    rev_a = naive_reversion(a)
    out: Terms = {}
    for idx in all_index_tuples(n):
        c = {idx: Fraction(1)}
        rhs = naive_metric(b, naive_wedge(c, rev_a, p, q), p, q)
        if rhs:
            out[idx] = rhs / naive_blade_metric(idx, idx, p, q)
    return {k: v for k, v in out.items() if v}


def to_multivector(terms: Terms, sig):
    """Bridge an oracle value into the package representation."""
    from cliffsig import Multivector, blade_from_indices

    return Multivector(
        sig, {blade_from_indices(idx, sig): c for idx, c in terms.items()}
    )


def from_multivector(a) -> Terms:
    from cliffsig import blade_indices

    return {blade_indices(m): c for m, c in a.terms.items()}


def random_multivector(rng: random.Random, sig):
    """Sum of four seeded random blades times n/d, n in [-8, 8] and
    d in [1, 6], as a package Multivector."""
    from cliffsig import Multivector

    coeffs = {}
    for _ in range(4):
        mask = rng.randrange(1 << sig.n)
        coeffs[mask] = coeffs.get(mask, 0) + Fraction(rng.randint(-8, 8), rng.randint(1, 6))
    return Multivector(sig, coeffs)


def random_vector(rng: random.Random, sig):
    """1-vector with seeded random rational coefficients n/d, n in [-6, 6]
    and d in [1, 4], e_1 first, as a package Multivector."""
    from cliffsig import Multivector

    return Multivector(
        sig, {1 << k: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for k in range(sig.n)}
    )


def multivector_structure_constants(sig, masks, product):
    """Structure constants of a blade basis read off a Multivector
    product: cell (i, j) holds the terms of product(b_i, b_j) keyed by
    basis index, integral coefficients as ints.  This is the slow route
    that ``regular_representation`` below replaces by reading the
    product's blade sign function directly; it is kept to cross-check
    that the two agree."""
    from cliffsig import Multivector

    index = {mask: i for i, mask in enumerate(masks)}
    basis = [Multivector.blade(sig, m) for m in masks]
    return [
        [
            {
                index[mask]: c.numerator if c.denominator == 1 else c
                for mask, c in product(a, b).terms.items()
            }
            for b in basis
        ]
        for a in basis
    ]


# -- pair references -----------------------------------------------------------
#
# The package reads each product through a row sign function, one row
# (neg, zero) per left factor.  These are the same products one pair of
# blades at a time, each a (sign, mask) from ``kernels.blade_mul``: the
# references the row functions and the products are checked against, and
# what a test alters pair by pair before ``rows`` hands it to the oracle.


def geometric_pair_op(sig):
    """The Clifford product of ``sig`` on one blade pair."""
    from cliffsig import kernels

    neg = sig.neg_mask
    return lambda a, b: kernels.blade_mul(a, b, neg)


def vee_alpha_pair_op(gr):
    """∨ of the grading ``gr`` on one blade pair: the Clifford product of
    g_a, the odd generators' squares flipped."""
    from cliffsig import kernels

    neg = gr.sig.neg_mask ^ gr.odd_mask
    return lambda a, b: kernels.blade_mul(a, b, neg)


def vee_prime_pair_op(gr):
    """∨' of the grading ``gr`` on one blade pair:
    x ∨' y = (-1)^(π(x)π(y)) y x, with π the alpha-parity of a blade."""
    from cliffsig import kernels

    neg, odd = gr.sig.neg_mask, gr.odd_mask

    def pair_op(x, y):
        sign, mask = kernels.blade_mul(y, x, neg)
        if (x & odd).bit_count() & (y & odd).bit_count() & 1:
            sign = -sign
        return sign, mask

    return pair_op


# -- Fraction-dict reference for the multivector arithmetic -------------------
#
# ``Multivector`` stores integer numerators over one common denominator.
# These are its operations as they were written before that, on plain
# {mask: Fraction} dicts with zero coefficients dropped, one Fraction
# operation per term.  ``ref_bilinear`` reads a pair function (the pair
# references above, or a pair kernel) where the package reads rows, so the
# tests compare both the row reading and the arithmetic.

MaskTerms = dict[int, Fraction]  # blade mask -> nonzero coefficient


def ref_bilinear(a: MaskTerms, b: MaskTerms, blade_op) -> MaskTerms:
    out: MaskTerms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            sign, mask = blade_op(ma, mb)
            if sign:
                acc = out.get(mask, Fraction(0)) + sign * ca * cb
                if acc:
                    out[mask] = acc
                elif mask in out:
                    del out[mask]
    return out


def ref_add(a: MaskTerms, b: MaskTerms) -> MaskTerms:
    out = dict(a)
    for mask, c in b.items():
        out[mask] = out.get(mask, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def ref_scale(a: MaskTerms, f) -> MaskTerms:
    f = Fraction(f)
    return {m: c * f for m, c in a.items() if c * f}


def ref_reweight(a: MaskTerms, weight) -> MaskTerms:
    """Keep, negate or drop each term by ``weight(mask)`` in {1, -1, 0}:
    the shape of every grade, parity and grading projection or involution."""
    return {m: weight(m) * c for m, c in a.items() if weight(m)}


def ref_extended_metric(a: MaskTerms, b: MaskTerms, metric_sign) -> Fraction:
    total = Fraction(0)
    for mask, ca in a.items():
        cb = b.get(mask)
        if cb is not None:
            total += ca * cb * metric_sign(mask)
    return total


# -- sign-table reference ------------------------------------------------------
#
# The oracle's construction before the bicharacter certificate: a dim**2
# table of signs and result indices read from a blade sign function, the
# cocycle identity over every triple (or seeded ones), and the fingerprint
# read off the table.  It assumes a twisted product but no bicharacter, so
# the tests compare the certificate's fingerprints and wordings with it.


class NotTwisted(NotClosed):
    """A product of two blades is not plus or minus their symmetric
    difference, which no row ``(neg, zero)`` can hold: raised by the rows
    and tables built here from pair data.  A NotClosed, so the oracle's
    verdict carries its message."""


def rows(pair_op):
    """The row sign function the oracle reads, ``row_op(a, cols)``, made
    from a blade sign function one pair at a time: how the tests hand the
    oracle a product they have altered or tabulated pair by pair.  Both
    ints of the row ``(neg, zero)`` are built pair by pair over the column
    list.  At the first nonzero pair whose mask is not a ^ b, which no row
    can hold, it raises NotClosed if the mask lies outside the column
    list, else NotTwisted."""
    from cliffsig.oracle import format_blades

    def row_op(a, cols):
        bs = cols[0]
        neg = zero = 0
        for j, b in enumerate(bs):
            sign, mask = pair_op(a, b)
            if not sign:
                zero |= 1 << j
            elif mask != a ^ b:
                pair = format_blades((a, b))
                if mask not in bs:
                    raise NotClosed(f"product {pair} leaves the span")
                raise NotTwisted(f"product {pair} is not plus or minus the blade {a ^ b:#b}")
            elif sign < 0:
                neg |= 1 << j
        return neg, zero

    return row_op


class StructureConstants:
    """Blade-basis structure constants: b_i b_j = sign[i][j] b_{prod[i][j]}.

    A sign is -1, 0 or 1; where it is 0 the product is 0 and prod is -1.
    """

    __slots__ = ("sign", "prod", "dim")

    def __init__(self, sign, prod):
        self.sign = sign
        self.prod = prod
        self.dim = len(sign)


def regular_representation(masks, blade_op) -> StructureConstants:
    """Cell (i, j) is read from ``sign, mask = blade_op(masks[i], masks[j])``;
    a sign of 0 is no term.  The mask list is judged first, as the oracle
    judges it, before ``blade_op`` is called: NotIndependent on an empty or
    repeated list, and NotClosed at the first pair in row-major order whose
    symmetric difference is not in the list, even where the product there
    vanishes.  Then NotClosed at the first nonzero product outside the
    list, and NotTwisted at the first one off the symmetric difference."""
    from cliffsig import NotIndependent

    masks = list(masks)
    if not masks:
        raise NotIndependent("empty basis")
    index = {mask: i for i, mask in enumerate(masks)}
    if len(index) < len(masks):
        raise NotIndependent("a blade appears twice in the basis")
    for (i, a), (j, b) in itertools.product(enumerate(masks), repeat=2):
        if a ^ b not in index:
            raise NotClosed(f"product of basis elements {i} and {j} leaves the span")
    sign, prod = [], []
    for i, a in enumerate(masks):
        sign_row, prod_row = [], []
        for j, b in enumerate(masks):
            s, mask = blade_op(a, b)
            k = -1
            if s:
                k = index.get(mask, -1)
                if k < 0:
                    raise NotClosed(
                        f"product of basis elements {i} and {j} leaves the span"
                    )
                if mask != a ^ b:
                    raise NotTwisted(
                        f"product of basis elements {i} and {j} is not "
                        f"plus or minus the blade {a ^ b:#b}"
                    )
            sign_row.append(s)
            prod_row.append(k)
        sign.append(sign_row)
        prod.append(prod_row)
    return StructureConstants(sign, prod)


def _triples(dim: int, seed: int, trials: int):
    """Index triples of a basis of size ``dim``: every one while
    dim**3 <= 4096, else ``trials`` drawn from ``random.Random(seed)``."""
    from cliffsig.oracle import associativity_is_exhaustive

    if associativity_is_exhaustive(dim):
        return itertools.product(range(dim), repeat=3)
    rng = random.Random(seed)
    return (
        (rng.randrange(dim), rng.randrange(dim), rng.randrange(dim))
        for _ in range(trials)
    )


def first_nonassociative_triple(sc: StructureConstants, seed: int, trials: int):
    """First basis triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), or
    None, over ``_triples``.  Both sides lie on the same blade, so they are
    compared by their signs (the cocycle identity)."""
    sign, prod = sc.sign, sc.prod
    for i, j, k in _triples(sc.dim, seed, trials):
        s, t = sign[i][j], sign[j][k]
        left = s and s * sign[prod[i][j]][k]
        right = t and t * sign[i][prod[j][k]]
        if left != right:
            return i, j, k
    return None


def table_check_associativity(masks, sc: StructureConstants, seed: int, trials: int):
    """The table's associativity pass and its report, worded as the oracle
    words a triple: ``exhaustive triples`` or ``N sampled triples``, then
    ``0 violations`` or the first failing triple as blades."""
    from cliffsig.oracle import associativity_is_exhaustive, format_blades

    how = "exhaustive" if associativity_is_exhaustive(sc.dim) else f"{trials} sampled"
    bad = first_nonassociative_triple(sc, seed, trials)
    if bad is None:
        return True, f"{how} triples, 0 violations"
    witness = format_blades(masks[i] for i in bad)
    return False, f"{how} triples, first violation {witness}"


def structural_invariants(sc: StructureConstants):
    """Fingerprint read off the table, checking no associativity:
    B(e_a, e_a) = sum over c of σ(a,c) σ(a,a^c), and the center spanned by
    the blades whose row equals their column."""
    from cliffsig import StructuralInvariants

    def signature(values):
        return sum(v > 0 for v in values), sum(v < 0 for v in values)

    sign, prod = sc.sign, sc.prod
    trace = [
        sum(s * row[k] for s, k in zip(row, prod_row) if s)
        for row, prod_row in zip(sign, prod)
    ]
    central = [
        b for b, (row, col) in enumerate(zip(sign, zip(*sign))) if tuple(row) == col
    ]
    return StructuralInvariants(
        dim=sc.dim,
        center_dim=len(central),
        trace_sig=signature(trace),
        center_trace_sig=signature([trace[b] for b in central]),
    )


# -- dense fingerprint reference ---------------------------------------------
#
# The oracle's construction before it read fingerprints off the blade sign
# table: one {index: constant} dict per cell, associativity by expanding
# both sides, the center as a nullspace and the trace form as a dense
# matrix diagonalized by congruence (both through ``cliffsig.linalg``),
# and reference classes realized by matrix units.  It assumes nothing
# about the products' blade structure, so the tests compare the package's
# sign-table shortcuts and closed forms against it.
_K_UNITS = {"R": ("1",), "C": ("1", "i"), "H": ("1", "i", "j", "k")}

_H_MUL = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}

_K_MUL = {
    "R": {("1", "1"): (1, "1")},
    "C": {("1", "1"): (1, "1"), ("1", "i"): (1, "i"),
          ("i", "1"): (1, "i"), ("i", "i"): (-1, "1")},
    "H": _H_MUL,
}

class DenseConstants:
    """Sparse structure constants: b_i b_j = sum_k table[i][j][k] b_k.

    Each constant is an ``int`` when integral and a ``Fraction`` otherwise,
    never a ``float``.
    """

    __slots__ = ("table", "dim")

    def __init__(self, table):
        self.table = table
        self.dim = len(table)

    def direct_sum(self, other: "DenseConstants") -> "DenseConstants":
        off = self.dim
        table = [
            [dict(cell) for cell in row] + [{} for _ in range(other.dim)]
            for row in self.table
        ]
        for row in other.table:
            new_row = [{} for _ in range(off)]
            new_row.extend({k + off: v for k, v in cell.items()} for cell in row)
            table.append(new_row)
        return DenseConstants(table)

    @classmethod
    def matrix_units(cls, m: int, K: str) -> "DenseConstants":
        """Reference realization of M(m, K) over the real basis
        {E_ab * u : u a unit of K}."""
        units = _K_UNITS[K]
        mul = _K_MUL[K]
        nu = len(units)

        def idx(a: int, b: int, ui: int) -> int:
            return (a * m + b) * nu + ui

        dim = m * m * nu
        table = [[{} for _ in range(dim)] for _ in range(dim)]
        for a, b, ui in itertools.product(range(m), range(m), range(nu)):
            left = idx(a, b, ui)
            for c, d, vi in itertools.product(range(m), range(m), range(nu)):
                if b != c:
                    continue
                sign, w = mul[(units[ui], units[vi])]
                table[left][idx(c, d, vi)] = {
                    idx(a, d, units.index(w)): sign
                }
        return cls(table)


def dense_regular_representation(masks, blade_op) -> DenseConstants:
    """Cell (i, j) is {index of mask: sign} for ``sign, mask =
    blade_op(masks[i], masks[j])``, and empty when the sign is 0."""
    from cliffsig import NotClosed, NotIndependent

    masks = list(masks)
    if not masks:
        raise NotIndependent("empty basis")
    index = {mask: i for i, mask in enumerate(masks)}
    if len(index) < len(masks):
        raise NotIndependent("a blade appears twice in the basis")
    table = []
    for i, a in enumerate(masks):
        row = []
        for j, b in enumerate(masks):
            sign, mask = blade_op(a, b)
            if not sign:
                row.append({})
                continue
            k = index.get(mask)
            if k is None:
                raise NotClosed(
                    f"product of basis elements {i} and {j} leaves the span"
                )
            row.append({k: sign})
        table.append(row)
    return DenseConstants(table)


def dense_first_nonassociative_triple(sc: DenseConstants, seed: int, trials: int):
    """First basis triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k),
    or None, over ``_triples``."""
    table = sc.table
    for i, j, k in _triples(sc.dim, seed, trials):
        # (b_i b_j) b_k - b_i (b_j b_k), accumulated coordinate-wise
        diff = {}
        for mid, v in table[i][j].items():
            for out, w in table[mid][k].items():
                diff[out] = diff.get(out, 0) + v * w
        for mid, v in table[j][k].items():
            for out, w in table[i][mid].items():
                diff[out] = diff.get(out, 0) - v * w
        if any(diff.values()):
            return i, j, k
    return None


def dense_center_basis(sc: DenseConstants):
    """Nullspace of x -> ([x, b_j])_j over the basis coordinates."""
    from cliffsig import linalg

    dim = sc.dim
    rows = {}

    def add(key, col, val):
        row = rows.setdefault(key, {})
        row[col] = row.get(col, 0) + val

    for i in range(dim):
        for j in range(dim):
            for k, v in sc.table[i][j].items():
                add((j, k), i, v)
                add((i, k), j, -v)
    seen = set()
    sparse_rows = []
    for row in rows.values():
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        lead = min(row)
        scale = row[lead]
        key = tuple(sorted((c, Fraction(v, scale)) for c, v in row.items()))
        if key not in seen:
            seen.add(key)
            sparse_rows.append(row)
    return linalg.nullspace(sparse_rows, dim)


def dense_trace_form(sc: DenseConstants):
    """B[i][j] = tr(L_i L_j) = sum over a, m of c_{im}^a c_{ja}^m.

    The sum runs over nonzero constants only: index (m, a) -> [(i, c_{im}^a)]
    once, then join every c_{ja}^m against it.  This is the definition
    itself, not tr(L_{b_i b_j}), which would lean on associativity.
    """
    dim = sc.dim
    table = sc.table
    by_entry = {}
    for i, row in enumerate(table):
        for m, cell in enumerate(row):
            for a, c in cell.items():
                by_entry.setdefault((m, a), []).append((i, c))
    b = [[0] * dim for _ in range(dim)]
    for j, row in enumerate(table):
        for a, cell in enumerate(row):
            for m, v in cell.items():
                for i, w in by_entry.get((m, a), ()):
                    b[i][j] += w * v
    return b


def _bilinear_form(b, u, v):
    total = 0
    for i, ui in enumerate(u):
        if ui:
            row = b[i]
            for j, vj in enumerate(v):
                if vj and row[j]:
                    total += ui * row[j] * vj
    return total


def dense_invariants(sc: DenseConstants):
    """The fingerprint by the dense route, after its own associativity
    check (every triple while dim**3 <= 4096, 200 seeded ones beyond);
    ValueError on a violation."""
    bad = dense_first_nonassociative_triple(sc, 0, 200)
    if bad is not None:
        raise ValueError(f"not associative at basis triple {bad}")
    return dense_fingerprint(sc)


def dense_fingerprint(sc: DenseConstants):
    """The fingerprint by the dense route without any associativity check:
    center nullspace, trace form and congruence signatures."""
    from cliffsig import StructuralInvariants, linalg

    center = dense_center_basis(sc)
    b = dense_trace_form(sc)
    pos, neg, _zero = linalg.symmetric_signature(b)
    if center:
        gram = [
            [_bilinear_form(b, u, v) for v in center]
            for u in center
        ]
        cpos, cneg, _ = linalg.symmetric_signature(gram)
    else:
        cpos = cneg = 0
    return StructuralInvariants(
        dim=sc.dim,
        center_dim=len(center),
        trace_sig=(pos, neg),
        center_trace_sig=(cpos, cneg),
    )


def reference_constants(cls) -> DenseConstants:
    """Matrix units for each component of the class, direct-summed."""
    blocks = [DenseConstants.matrix_units(c.m, c.K) for c in cls.components]
    return functools.reduce(DenseConstants.direct_sum, blocks)


# -- pair-by-pair definition reference -----------------------------------------
#
# ``verify_clifford_map``'s definition check as it ran before the expected
# rows were made once per signature: every (generator, blade) pair reads
# the kernels afresh and compares e ∨ A with e^A + alpha(e)⌟A as
# {mask: coefficient} sums, one pair at a time.


def _signed_blades(*terms):
    """{mask: coefficient} of a sum of (sign, mask) pairs, zeros dropped."""
    out = {}
    for sign, mask in terms:
        if sign:
            out[mask] = out.get(mask, 0) + sign
    return {m: c for m, c in out.items() if c}


def definition_reference(gr, row_op):
    """The ``definition`` CheckResult of ``gr`` for the ∨ whose row sign
    function is ``row_op``, each pair read from ``kernels.blade_wedge``
    and ``kernels.blade_left_contract`` under the original metric at call
    time."""
    from cliffsig import kernels
    from cliffsig.core import all_blades
    from cliffsig.sigchange import CheckResult

    sig = gr.sig
    blades = all_blades(sig)
    bad = []
    for k in range(sig.n):
        e = 1 << k
        alpha_e = -1 if e & gr.odd_mask else 1
        row = row_op(e, kernels.columns(blades))
        for j, a in enumerate(blades):
            sign, mask = kernels.blade_left_contract(e, a, sig.neg_mask)
            want = _signed_blades(kernels.blade_wedge(e, a), (alpha_e * sign, mask))
            if _signed_blades((kernels.row_sign(row, j), e ^ a)) != want:
                bad.append((e, a))
    pairs = f"{sig.n * len(blades)} (generator, blade) pairs"
    return CheckResult.counted("definition", pairs, len(bad), bad[0] if bad else None)
