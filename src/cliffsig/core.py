"""Exact multivector arithmetic for Cl(p,q) on the Grassmann carrier.

The algebra lives on the 2^n-dimensional space of multivectors over an
orthonormal basis e_1..e_n, where e_1..e_p square to +1 and the remaining
q square to -1.  Blades are encoded as index bitmasks (bit i-1 <-> e_i)
and a multivector is a sparse map from blade mask to an exact rational
coefficient.  No floating point appears anywhere: every identity checked
downstream (classification invariants, signature data) must hold exactly.

All values are immutable after construction and every operation is a pure
function, so multivectors and signatures can be shared freely between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from . import kernels

#: Cap on p+q.  A multivector stores up to 2^n terms and the oracle's
#: sign table has 4^n cells, so this is a guard rail, not a hard
#: algorithmic limit; raise it if you can pay the cost.  Fingerprint
#: injectivity is tested for every class reachable within it.
MAX_DIMENSION = 12

Rational = Fraction | int


class SignatureMismatch(ValueError):
    """Two multivectors from different Cl(p,q) were combined."""


@dataclass(frozen=True)
class Signature:
    """Metric signature (p,q) of the underlying quadratic space.

    Convention: the first p basis vectors square to +1, the last q to -1.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("signature counts must be non-negative")
        if self.p + self.q > MAX_DIMENSION:
            raise ValueError(
                f"p+q = {self.p + self.q} exceeds the dimension cap {MAX_DIMENSION}"
            )

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


def all_blades(sig: Signature) -> list[int]:
    """Every blade mask of Cl(p,q) in canonical order."""
    return sorted(range(1 << sig.n), key=blade_sort_key)


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


class Multivector:
    """Element of Cl(p,q): sparse blade-mask -> Fraction map.

    Zero coefficients are never stored, so equality of the term maps is
    equality in the algebra.  Instances are immutable.

    Operators: ``+``/``-`` add, ``*`` is the geometric product (scalars
    promote), ``^`` the exterior product.  Contractions and the rest of
    the toolkit are module-level functions.
    """

    __slots__ = ("sig", "_terms")

    def __init__(self, sig: Signature, terms: Mapping[int, Rational] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for mask, coeff in terms.items():
                sig.check_mask(mask)
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError(
                        f"coefficient {coeff!r} is not an int or a Fraction"
                    )
                c = Fraction(coeff)
                if c:
                    clean[mask] = c
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig)

    @classmethod
    def scalar(cls, sig: Signature, value: Rational) -> "Multivector":
        return cls(sig, {0: value})

    @classmethod
    def basis_vector(cls, sig: Signature, i: int) -> "Multivector":
        sig.check_index(i)
        return cls(sig, {1 << (i - 1): Fraction(1)})

    @classmethod
    def blade(cls, sig: Signature, mask: int, coeff: Rational = 1) -> "Multivector":
        return cls(sig, {mask: coeff})

    # -- inspection

    @property
    def terms(self) -> Mapping[int, Fraction]:
        return MappingProxyType(self._terms)

    def grades(self) -> set[int]:
        return {kernels.grade(m) for m in self._terms}

    def scalar_part(self) -> Fraction:
        return self._terms.get(0, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_vector(self) -> bool:
        """True for elements of V (including 0)."""
        return all(kernels.grade(m) == 1 for m in self._terms)

    def grade(self, k: int) -> "Multivector":
        return grade_projection(self, k)

    # -- arithmetic

    def _coerce(self, other) -> "Multivector | None":
        if isinstance(other, Multivector):
            if other.sig != self.sig:
                raise SignatureMismatch(f"{self.sig} vs {other.sig}")
            return other
        if isinstance(other, (int, Fraction)):
            return Multivector.scalar(self.sig, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for mask, c in rhs._terms.items():
            out[mask] = out.get(mask, Fraction(0)) + c
        return Multivector(self.sig, out)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __neg__(self):
        return Multivector(self.sig, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Multivector(self.sig, {m: c * f for m, c in self._terms.items()})
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
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(self.sig, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self._terms == other._terms

    def __hash__(self):
        return hash((self.sig, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self) -> str:
        from .expr import format_multivector

        return format_multivector(self)

    def __repr__(self) -> str:
        return f"<{self} :: {self.sig}>"


def _check_same_sig(a: Multivector, b: Multivector) -> None:
    if a.sig != b.sig:
        raise SignatureMismatch(f"{a.sig} vs {b.sig}")


def bilinear(a: Multivector, b: Multivector, blade_op) -> Multivector:
    """Extend a (sign, mask)-valued blade operation bilinearly.

    The one driver behind every product in the package: each product is
    only a choice of ``blade_op``, which sends a pair of blade masks to a
    sign in {-1, 0, 1} and a result mask.  The caller checks signatures.
    """
    out: dict[int, Fraction] = {}
    for ma, ca in a._terms.items():
        for mb, cb in b._terms.items():
            sign, mask = blade_op(ma, mb)
            if sign:
                acc = out.get(mask, Fraction(0)) + sign * ca * cb
                if acc:
                    out[mask] = acc
                elif mask in out:
                    del out[mask]
    return Multivector(a.sig, out)


def geometric_blade_op(sig: Signature):
    """Blade sign function of the Clifford product of ``sig``: the one
    definition behind ``geometric_product`` and its structure constants."""
    neg = sig.neg_mask
    return lambda ma, mb: kernels.blade_mul(ma, mb, neg)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product of Cl(p,q); associative, unit = scalar 1."""
    _check_same_sig(a, b)
    return bilinear(a, b, geometric_blade_op(a.sig))


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product (graded-anticommutative, metric-independent)."""
    _check_same_sig(a, b)
    return bilinear(a, b, kernels.blade_wedge)


def left_contraction(a: Multivector, b: Multivector) -> Multivector:
    """a left-contracted onto b, adjoint to the wedge:
    g(a ⌟ b, c) = g(b, reversion(a) ^ c) for all c."""
    _check_same_sig(a, b)
    neg = a.sig.neg_mask
    return bilinear(a, b, lambda ma, mb: kernels.blade_left_contract(ma, mb, neg))


def right_contraction(a: Multivector, b: Multivector) -> Multivector:
    """a right-contracted by b: g(a ⌞ b, c) = g(a, c ^ reversion(b))."""
    _check_same_sig(a, b)
    neg = a.sig.neg_mask
    return bilinear(a, b, lambda ma, mb: kernels.blade_right_contract(ma, mb, neg))


def grade_projection(a: Multivector, k: int) -> Multivector:
    """Grade-k part of a; 0 for k outside [0, n] (by convention)."""
    return Multivector(
        a.sig, {m: c for m, c in a._terms.items() if kernels.grade(m) == k}
    )


def even_grade_part(a: Multivector) -> Multivector:
    return Multivector(a.sig, {m: c for m, c in a._terms.items() if not kernels.grade(m) & 1})


def odd_grade_part(a: Multivector) -> Multivector:
    return Multivector(a.sig, {m: c for m, c in a._terms.items() if kernels.grade(m) & 1})


def parity(a: Multivector) -> Multivector:
    """Grade involution: (-1)^k on the grade-k part; an automorphism."""
    return Multivector(
        a.sig,
        {m: -c if kernels.grade(m) & 1 else c for m, c in a._terms.items()},
    )


def reversion(a: Multivector) -> Multivector:
    """Reversion: (-1)^floor(k/2) on the grade-k part; an anti-automorphism."""
    return Multivector(
        a.sig,
        {m: -c if kernels.grade(m) // 2 & 1 else c for m, c in a._terms.items()},
    )


def extended_metric(a: Multivector, b: Multivector) -> Fraction:
    """Metric extended to multivectors by the Gram-determinant rule.

    On the orthonormal blade basis this diagonalizes: g(A, B) = 0 unless
    A and B share the same index set, in which case it is the product of
    the generator squares.  Different grades pair to 0.
    """
    _check_same_sig(a, b)
    neg = a.sig.neg_mask
    total = Fraction(0)
    small, large = (a._terms, b._terms) if len(a._terms) <= len(b._terms) else (b._terms, a._terms)
    for mask, ca in small.items():
        cb = large.get(mask)
        if cb is not None:
            total += ca * cb * kernels.blade_metric_sign(mask, neg)
    return total
