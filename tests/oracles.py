"""Independent brute-force oracles used to compute frozen expected values.

Everything here is built from first principles on index TUPLES, not
bitmasks: blade products by bubble-sort transposition counting, the
extended metric by cofactor-expansion Gram determinants, contractions by
solving the adjointness relation coefficient by coefficient.  No code is
shared with the package, so agreement is meaningful.
"""

from fractions import Fraction

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


def multivector_structure_constants(sig, masks, product):
    """Structure constants of a blade basis read off a Multivector
    product: cell (i, j) holds the terms of product(b_i, b_j) keyed by
    basis index, integral coefficients as ints.  This is the slow route
    the oracle's ``regular_representation`` replaces by reading the
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
