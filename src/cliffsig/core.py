"""Exact multivector arithmetic for Cl(p,q) on the Grassmann carrier.

The algebra lives on the 2^n-dimensional space of multivectors over an
orthonormal basis e_1..e_n, where e_1..e_p square to +1 and the remaining
q square to -1.  Blades are encoded as index bitmasks (bit i-1 <-> e_i)
and a multivector is a sparse map from blade mask to an exact rational
coefficient, stored as integer numerators over one common denominator so
that products run on ints.  No floating point appears anywhere: every
identity checked downstream (classification invariants, signature data)
must hold exactly.

All values are immutable after construction and every operation is a pure
function, so multivectors and signatures can be shared freely between
threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping

from . import kernels

#: Cap on p+q.  A multivector stores up to 2^n terms and the oracle makes
#: dim² sign reads in O(dim) memory, so this is a guard rail, not a hard
#: algorithmic limit; raise it if you can pay the cost.  Fingerprint
#: injectivity is tested for every class reachable within it.
MAX_DIMENSION = 12

Rational = Fraction | int


class SignatureMismatch(ValueError):
    """Two multivectors from different Cl(p,q) were combined."""


class Frozen:
    """Base of the value classes: immutable ``__slots__`` objects, equal,
    hashed, pickled and shown by the tuple of their slot values.

    A subclass sets each slot once, with ``object.__setattr__``; assigning
    or deleting one afterwards raises ``AttributeError``.  A value equals
    only a value of its own class, never a plain tuple.  ``__reduce__``
    calls the class with the slot values, so a class whose constructor
    takes other arguments defines its own.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self))
        )
        return f"{type(self).__name__}({fields})"


class Signature(Frozen):
    """Metric signature (p,q) of the underlying quadratic space.

    Convention: the first p basis vectors square to +1, the last q to -1.
    Immutable; equal and hashed as the pair (p, q), but never equal to a
    plain tuple.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ValueError("signature counts must be non-negative")
        if p + q > MAX_DIMENSION:
            raise ValueError(f"p+q = {p + q} exceeds the dimension cap {MAX_DIMENSION}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def neg_mask(self) -> int:
        """Bitmask of the generators squaring to -1."""
        return ((1 << self.q) - 1) << self.p

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def metric(self, i: int) -> int:
        """Square of e_i (1-based index): +1 or -1."""
        self.check_index(i)
        return 1 if i <= self.p else -1

    def check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"basis index e{i} out of range for {self}")

    def check_mask(self, mask: int) -> None:
        if not 0 <= mask <= self.full_mask:
            raise ValueError(f"blade mask {mask:#x} out of range for {self}")

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


# ---------------------------------------------------------------------------
# blades


def blade_from_indices(indices: Iterable[int], sig: Signature | None = None) -> int:
    """Bitmask of a blade given its (distinct, 1-based) index set."""
    mask = 0
    for i in indices:
        if sig is not None:
            sig.check_index(i)
        elif i < 1:
            raise ValueError(f"basis index e{i} must be positive")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated basis index e{i} in blade")
        mask |= bit
    return mask


def blade_indices(mask: int) -> tuple[int, ...]:
    """Increasing 1-based index tuple of a blade mask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def blade_sort_key(mask: int):
    """Canonical order: by grade, then lexicographically by index set."""
    return kernels.grade(mask), blade_indices(mask)


@cache
def blade_order(n: int) -> tuple[int, ...]:
    """Every blade mask on n generators in canonical order, sorted once
    per n."""
    return tuple(sorted(range(1 << n), key=blade_sort_key))


def all_blades(sig: Signature) -> list[int]:
    """Every blade mask of Cl(p,q) in canonical order, as a new list."""
    return list(blade_order(sig.n))


def blade_product(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Geometric product of two basis blades: (sign, blade mask).

    The sign is the parity of the permutation merging the two index lists
    times the metric signs of the indices that cancel.
    """
    sig.check_mask(a)
    sig.check_mask(b)
    return kernels.blade_mul(a, b, sig.neg_mask)


# ---------------------------------------------------------------------------
# multivectors


class Multivector(Frozen):
    """Element of Cl(p,q): integer numerators over one common denominator.

    Canonical form: ``_num`` maps blade masks to nonzero ints, ``_den`` is
    a positive int, and gcd(_den, *_num.values()) == 1, so equality is a
    plain compare of (sig, den, num).  ``terms`` shows the same value as a
    blade-mask -> Fraction map.  Instances are immutable.

    Operators: ``+``/``-`` add, ``*`` is the geometric product (scalars
    promote), ``^`` the exterior product.  Contractions and the rest of
    the toolkit are module-level functions.
    """

    __slots__ = ("sig", "_num", "_den")

    def __init__(self, sig: Signature, terms: Mapping[int, Rational] | None = None):
        parts = []
        den = 1
        if terms:
            for mask, coeff in terms.items():
                sig.check_mask(mask)
                if isinstance(coeff, int):
                    n, d = int(coeff), 1
                elif isinstance(coeff, Fraction):
                    n, d = coeff.numerator, coeff.denominator
                else:
                    raise TypeError(
                        f"coefficient {coeff!r} is not an int or a Fraction"
                    )
                if n:
                    parts.append((mask, n, d))
                    if d != 1:
                        den = lcm(den, d)
        # reduced fractions over the lcm of their denominators are in
        # canonical form: no prime of the lcm divides every numerator
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "_num", {m: n * (den // d) for m, n, d in parts})
        object.__setattr__(self, "_den", den)

    # -- constructors

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return _new(sig, {}, 1)

    @classmethod
    def scalar(cls, sig: Signature, value: Rational) -> "Multivector":
        return cls(sig, {0: value})

    @classmethod
    def basis_vector(cls, sig: Signature, i: int) -> "Multivector":
        sig.check_index(i)
        return _new(sig, {1 << (i - 1): 1}, 1)

    @classmethod
    def blade(cls, sig: Signature, mask: int, coeff: Rational = 1) -> "Multivector":
        return cls(sig, {mask: coeff})

    # -- inspection

    @property
    def terms(self) -> Mapping[int, Fraction]:
        den = self._den
        return MappingProxyType({m: Fraction(n, den) for m, n in self._num.items()})

    def grades(self) -> set[int]:
        return {kernels.grade(m) for m in self._num}

    def scalar_part(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_vector(self) -> bool:
        """True for elements of V (including 0)."""
        return all(kernels.grade(m) == 1 for m in self._num)

    def grade(self, k: int) -> "Multivector":
        return grade_projection(self, k)

    # -- arithmetic

    def _coerce(self, other) -> "Multivector | None":
        if isinstance(other, Multivector):
            _check_same_sig(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return Multivector.scalar(self.sig, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(self, rhs, 1)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(self, rhs, -1)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(rhs, self, -1)

    def __neg__(self):
        return _new(self.sig, {m: -n for m, n in self._num.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            top = f.numerator
            if not top:
                return _new(self.sig, {}, 1)
            return _reduced(
                self.sig,
                {m: n * top for m, n in self._num.items()},
                self._den * f.denominator,
            )
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __xor__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return wedge(self, rhs)

    def __rxor__(self, other):
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return wedge(lhs, self)

    def __eq__(self, other):
        if isinstance(other, Multivector):
            return (
                self._den == other._den
                and self._num == other._num
                and self.sig == other.sig
            )
        if isinstance(other, (int, Fraction)):
            return self._num.keys() <= {0} and self.scalar_part() == other
        return NotImplemented

    def __hash__(self):
        if self._num.keys() <= {0}:
            # equal to its scalar value, so it must hash like it
            return hash(self.scalar_part())
        return hash((self.sig, self._den, frozenset(self._num.items())))

    def __reduce__(self):
        return _new, (self.sig, self._num, self._den)

    def __bool__(self):
        return bool(self._num)

    def __str__(self) -> str:
        from .expr import format_multivector

        return format_multivector(self)

    def __repr__(self) -> str:
        return f"<{self} :: {self.sig}>"


def _new(sig: Signature, num: dict[int, int], den: int) -> Multivector:
    """A Multivector from numerators already in canonical form."""
    a = object.__new__(Multivector)
    object.__setattr__(a, "sig", sig)
    object.__setattr__(a, "_num", num)
    object.__setattr__(a, "_den", den)
    return a


def _reduced(sig: Signature, num: dict[int, int], den: int) -> Multivector:
    """A Multivector from nonzero numerators over a positive denominator,
    divided by their common gcd."""
    if not num:
        den = 1
    elif den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {m: n // g for m, n in num.items()}
            den //= g
    return _new(sig, num, den)


def _combine(a: Multivector, b: Multivector, sign: int) -> Multivector:
    """a + sign * b, over the lcm of the two denominators."""
    den = lcm(a._den, b._den)
    fa, fb = den // a._den, sign * (den // b._den)
    num = {m: n * fa for m, n in a._num.items()} if fa != 1 else dict(a._num)
    for m, n in b._num.items():
        num[m] = num.get(m, 0) + n * fb
    return _reduced(a.sig, {m: n for m, n in num.items() if n}, den)


def _reweighted(a: Multivector, weight) -> Multivector:
    """Keep, negate or drop each term of ``a`` as ``weight(mask)`` is
    positive, negative or zero: the one shape of the grade and parity
    projections and the involutions, here and in ``grading``."""
    num = {}
    for m, n in a._num.items():
        w = weight(m)
        if w:
            num[m] = n if w > 0 else -n
    return _reduced(a.sig, num, a._den)


def _check_same_sig(a, b) -> None:
    """Any two objects with a ``sig`` (a Multivector, a Z2Grading) must agree."""
    if a.sig != b.sig:
        raise SignatureMismatch(f"{a.sig} vs {b.sig}")


def kept(shared: dict | None, key, make):
    """``make()`` with no dict ``shared``; with one, the value it keeps
    under ``key``, made by ``make()`` and kept there on first use.  Every
    result one check shares with another lives in such a dict, which its
    caller owns, so nothing outlives the caller's run."""
    if shared is None:
        return make()
    value = shared.get(key)
    if value is None:
        value = shared[key] = make()
    return value


def bilinear(a: Multivector, b: Multivector, row_op) -> Multivector:
    """Extend a row sign function bilinearly.

    The one driver behind every product in the package: each product is
    only a choice of ``row_op``, which sends a blade mask and a column
    view (``kernels.columns``) to the row ``(neg, zero)`` of its products
    with the blades there, as the oracle reads it.  One row per term of
    ``a`` is read over the view of ``b``'s blades, and each nonzero
    product lies on ``ma ^ mb``.  Numerators multiply as ints over the
    product of the denominators, reduced by one gcd at the end.  The
    caller checks signatures.
    """
    out: dict[int, int] = {}
    get = out.get
    cols = kernels.columns(b._num)
    b_terms = [(1 << j, mb, cb) for j, (mb, cb) in enumerate(b._num.items())]
    for ma, ca in a._num.items():
        neg, zero = row_op(ma, cols)
        for bit, mb, cb in b_terms:
            if not zero & bit:
                mask = ma ^ mb
                out[mask] = get(mask, 0) + (-ca if neg & bit else ca) * cb
    return _reduced(a.sig, {m: n for m, n in out.items() if n}, a._den * b._den)


def geometric_row_op(sig: Signature):
    """Row sign function of the Clifford product of ``sig``: a blade and a
    column view (``kernels.columns``) to the row ``(neg, zero)`` of its
    products over it.  ``geometric_product`` reads it, and so does the
    oracle that certifies it."""
    neg = sig.neg_mask
    return lambda ma, cols: (kernels.blade_mul_row(ma, cols, neg), 0)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product of Cl(p,q); associative, unit = scalar 1."""
    _check_same_sig(a, b)
    return bilinear(a, b, geometric_row_op(a.sig))


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product (graded-anticommutative, metric-independent)."""
    _check_same_sig(a, b)
    return bilinear(a, b, lambda ma, cols: kernels.wedge_rows(ma, cols)[0])


def left_contraction(a: Multivector, b: Multivector) -> Multivector:
    """a left-contracted onto b, adjoint to the wedge:
    g(a ⌟ b, c) = g(b, reversion(a) ^ c) for all c."""
    _check_same_sig(a, b)
    neg = a.sig.neg_mask
    return bilinear(a, b, lambda ma, cols: kernels.contraction_rows(ma, cols, neg)[0])


def right_contraction(a: Multivector, b: Multivector) -> Multivector:
    """a right-contracted by b: g(a ⌞ b, c) = g(a, c ^ reversion(b)).
    Read with the factors swapped: per term of b, the row x ⌞ mb over
    the view of a's blades."""
    _check_same_sig(a, b)
    neg = a.sig.neg_mask
    return bilinear(b, a, lambda mb, cols: kernels.contraction_rows(mb, cols, neg)[1])


def grade_projection(a: Multivector, k: int) -> Multivector:
    """Grade-k part of a; 0 for k outside [0, n] (by convention)."""
    return _reweighted(a, lambda m: kernels.grade(m) == k)


def even_grade_part(a: Multivector) -> Multivector:
    return _reweighted(a, lambda m: not kernels.grade(m) & 1)


def odd_grade_part(a: Multivector) -> Multivector:
    return _reweighted(a, lambda m: kernels.grade(m) & 1)


def parity(a: Multivector) -> Multivector:
    """Grade involution: (-1)^k on the grade-k part; an automorphism."""
    return _reweighted(a, lambda m: -1 if kernels.grade(m) & 1 else 1)


def reversion(a: Multivector) -> Multivector:
    """Reversion: (-1)^floor(k/2) on the grade-k part; an anti-automorphism."""
    return _reweighted(a, lambda m: -1 if kernels.grade(m) // 2 & 1 else 1)


def extended_metric(a: Multivector, b: Multivector) -> Fraction:
    """Metric extended to multivectors by the Gram-determinant rule.

    On the orthonormal blade basis this diagonalizes: g(A, B) = 0 unless
    A and B share the same index set, in which case it is the product of
    the generator squares.  Different grades pair to 0.
    """
    _check_same_sig(a, b)
    neg = a.sig.neg_mask
    total = 0
    small, large = (a._num, b._num) if len(a._num) <= len(b._num) else (b._num, a._num)
    for mask, na in small.items():
        nb = large.get(mask)
        if nb is not None:
            total += na * nb * kernels.blade_metric_sign(mask, neg)
    return Fraction(total, a._den * b._den)
