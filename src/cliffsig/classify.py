"""Isomorphism classes of the semisimple real algebras that arise from
Clifford algebras and their graded even subalgebras.

A class is a multiset of simple components M(m,K) with K in {R, C, H}.
The closed forms are table-driven through the mod-8 periodicity of real
Clifford algebras; graded even subalgebras additionally repeat mod 4 in
the even-part signature difference p0-q0.  The structural oracle in
``cliffsig.oracle`` independently verifies every value these functions
produce.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable

from .core import Frozen

DIVISION_RINGS = ("R", "C", "H")
K_DIM = {"R": 1, "C": 2, "H": 4}


class SimpleComponent(Frozen):
    """One simple factor M(m, K); immutable, equal and hashed as (m, K)."""

    __slots__ = ("m", "K")

    def __init__(self, m: int, K: str):
        if m < 1:
            raise ValueError("matrix size must be >= 1")
        if K not in DIVISION_RINGS:
            raise ValueError(f"unknown division ring {K!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "K", K)

    @property
    def real_dim(self) -> int:
        return self.m * self.m * K_DIM[self.K]

    def __str__(self) -> str:
        return self.K if self.m == 1 else f"M({self.m},{self.K})"


class AlgebraClass(Frozen):
    """Multiset of simple components; equality is multiset equality."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[SimpleComponent]):
        comps = tuple(
            sorted(components, key=lambda c: (DIVISION_RINGS.index(c.K), c.m))
        )
        if not comps:
            raise ValueError("an algebra class needs at least one component")
        object.__setattr__(self, "components", comps)

    @classmethod
    def simple(cls, m: int, K: str) -> "AlgebraClass":
        return cls((SimpleComponent(m, K),))

    @classmethod
    def of(cls, *letters: str) -> "AlgebraClass":
        """Shorthand: AlgebraClass.of("H", "H") is H (+) H."""
        return cls(SimpleComponent(1, K) for K in letters)

    @property
    def real_dim(self) -> int:
        return sum(c.real_dim for c in self.components)

    def __str__(self) -> str:
        return " (+) ".join(str(c) for c in self.components)

    def __repr__(self) -> str:
        return f"AlgebraClass({self})"


# The division-algebra part A of Cl(p,q) ~ M(m,R) (x) A, keyed by
# (p-q) mod 8, with m fixed by m^2 dim_R A = 2^n.
_CLIFFORD_PERIOD = (
    ("R",),
    ("R", "R"),
    ("R",),
    ("C",),
    ("H",),
    ("H", "H"),
    ("H",),
    ("C",),
)

# Likewise for the even-grade part Cl+(p,q) ~ M(m,R) (x) B with
# m^2 dim_R B = 2^(n-1).
_EVEN_PART_PERIOD = (
    ("R", "R"),
    ("R",),
    ("C",),
    ("H",),
    ("H", "H"),
    ("H",),
    ("C",),
    ("R",),
)

# The even subalgebra of a NONtrivial structure-preserving grading:
# Cl0 ~ M(k,R) (x) D with k^2 dim_R D = 2^(n-1), keyed by
# ((p0-q0) mod 4, (p-q) mod 8).  (The trivial grading is the whole
# algebra and is not covered by this table.)
_EVEN_SUBALGEBRA_PERIOD = (
    (("R", "R"), ("R",), ("C",), ("H",), ("H", "H"), ("H",), ("C",), ("R",)),
    (
        ("R", "R"),
        ("R", "R", "R", "R"),
        ("R", "R"),
        ("C", "C"),
        ("H", "H"),
        ("H", "H", "H", "H"),
        ("H", "H"),
        ("C", "C"),
    ),
    (("C",), ("R",), ("R", "R"), ("R",), ("C",), ("H",), ("H", "H"), ("H",)),
    (
        ("C",),
        ("C", "C"),
        ("C",),
        ("C", "C"),
        ("C",),
        ("C", "C"),
        ("C",),
        ("C", "C"),
    ),
)


def _expand(letters: tuple[str, ...], total_dim: int) -> AlgebraClass:
    """M(m,R) (x) (sum of K's) with m fixed by the total real dimension."""
    base = sum(K_DIM[K] for K in letters)
    m_sq, rem = divmod(total_dim, base)
    m = isqrt(m_sq)
    if rem or m * m != m_sq:
        raise ValueError(
            f"dimension {total_dim} is not m^2 * {base} for any integer m"
        )
    return AlgebraClass(SimpleComponent(m, K) for K in letters)


def classify_clifford(p: int, q: int) -> AlgebraClass:
    """Isomorphism class of the real Clifford algebra Cl(p,q)."""
    if p < 0 or q < 0:
        raise ValueError("p and q must be non-negative")
    return _expand(_CLIFFORD_PERIOD[(p - q) % 8], 1 << (p + q))


def classify_even_part(p: int, q: int) -> AlgebraClass:
    """Isomorphism class of the even-grade subalgebra Cl+(p,q); p+q >= 1.

    Satisfies Cl+(p,q) ~ Cl(q,p-1) ~ Cl(p,q-1) ~ Cl+(q,p), each where
    defined.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be non-negative")
    if p + q < 1:
        raise ValueError("the even-grade part needs p+q >= 1")
    return _expand(_EVEN_PART_PERIOD[(p - q) % 8], 1 << (p + q - 1))


def _tensor_pair(a: SimpleComponent, b: SimpleComponent) -> list[SimpleComponent]:
    ks = {a.K, b.K}
    m = a.m * b.m
    if "R" in ks:
        other = (ks - {"R"}).pop() if len(ks) > 1 else "R"
        return [SimpleComponent(m, other)]
    if ks == {"C"}:
        return [SimpleComponent(m, "C"), SimpleComponent(m, "C")]
    if ks == {"C", "H"}:
        return [SimpleComponent(2 * m, "C")]
    return [SimpleComponent(4 * m, "R")]  # H (x) H = M(4,R)


def tensor_simplify(x: AlgebraClass, y: AlgebraClass) -> AlgebraClass:
    """Real tensor product in normal form.

    Rewrites with M(a,R) (x) M(b,K) = M(ab,K), C (x) C = C (+) C,
    C (x) H = M(2,C), H (x) H = M(4,R), distributing (x) over (+).
    """
    out: list[SimpleComponent] = []
    for ca in x.components:
        for cb in y.components:
            out.extend(_tensor_pair(ca, cb))
    return AlgebraClass(out)


def classify_even_subalgebra(p: int, q: int, p0: int, q0: int) -> AlgebraClass:
    """Even subalgebra of the grading whose even 1-vector space has
    signature (p0, q0): the class of Cl(p0,q0) (x) Cl+(p-p0, q-q0).

    The trivial grading (p0, q0) = (p, q) gives back the whole algebra;
    the usual one (0, 0) gives the even-grade part.
    """
    if not (0 <= p0 <= p and 0 <= q0 <= q):
        raise ValueError(f"(p0,q0)=({p0},{q0}) out of range for ({p},{q})")
    p1, q1 = p - p0, q - q0
    if p1 == 0 and q1 == 0:
        return classify_clifford(p, q)
    return tensor_simplify(classify_clifford(p0, q0), classify_even_part(p1, q1))


def even_subalgebra_lookup(p: int, q: int, p0: int, q0: int) -> AlgebraClass:
    """Direct periodic-table route to the same class, valid for nontrivial
    gradings only (for the trivial one the even part is the whole algebra
    and falls outside the half-dimension table)."""
    if not (0 <= p0 <= p and 0 <= q0 <= q):
        raise ValueError(f"(p0,q0)=({p0},{q0}) out of range for ({p},{q})")
    if p0 == p and q0 == q:
        raise ValueError("the trivial grading is not covered by the lookup table")
    letters = _EVEN_SUBALGEBRA_PERIOD[(p0 - q0) % 4][(p - q) % 8]
    return _expand(letters, 1 << (p + q - 1))
