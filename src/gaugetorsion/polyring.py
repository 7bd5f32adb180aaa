"""Sparse multivariate polynomials over a prime field.

The ambient ring is F_p[t1, ..., tn], the cohomology of an n-fold product of
circle classifying spaces. Each generator ti has internal degree 1 here; its
cohomological degree is 2, and the doubling is applied only when degrees are
reported, never in stored exponents. The univariate ring F_p[u] is the target
of the diagonal restriction, which sends every ti to u.

Polynomials are immutable by convention: operations always build new objects
and no method mutates ``terms`` after construction. Term order everywhere is
graded lexicographic (total degree first, then exponents, largest first
within a degree), which makes text rendering and iteration deterministic.

Every sparse ring of the package (this torus ring, F_p[u], the Chern ring
and the linear forms of the suspension engine) sits on one private core,
``_FpTable``: a map from keys to nonzero residues mod p with the shared
additive structure, equality and an unchecked internal constructor.

A single product keeps tuple keys. A long sum of products in one exponent
ring goes through ``_PackedSum`` instead: each exponent vector is packed
into one integer, in slots wide enough for the sum's exponent bound, so a
product of monomials is an integer addition that never carries between
slots; the sum stays unreduced under packed keys until its one reduction
mod p, and only the surviving terms are unpacked back into tuples.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import add
from types import MappingProxyType
from typing import Mapping

from .fp import Prime

__all__ = [
    "Monomial",
    "MultiPoly",
    "UniPoly",
    "elementary_sym",
    "power_sum",
    "is_symmetric",
    "diagonal_eval",
]

Monomial = tuple[int, ...]


def _unit(n: int, i: int) -> Monomial:
    """Exponent tuple of the i-th of n generators, 1-based."""
    return (0,) * (i - 1) + (1,) + (0,) * (n - i)


class _FpTable:
    """Finitely supported map from keys to nonzero residues mod p.

    The shared core of the sparse rings: ``terms`` is in canonical form
    (every value reduced mod p, no zero values), and two tables combine only
    when they have the same exact type and the same ``_ring()``, so distinct
    rings never mix even though they share this code. Subclasses validate
    outside input in their public constructors; results of ring operations
    go through the unchecked ``_canonical``/``_like`` path instead.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: Prime, terms: Mapping) -> None:
        q = p.value
        self.p = p
        self.terms = {key: r for key, c in terms.items() if (r := c % q)}

    @classmethod
    def _canonical(cls, p: Prime, terms: Mapping):
        """Element of this ring from raw integer values under valid keys, unchecked."""
        out = object.__new__(cls)
        _FpTable.__init__(out, p, terms)
        return out

    def _ring(self) -> tuple:
        return (self.p,)

    def _like(self, terms: Mapping):
        """Element of self's ring from raw integer values under valid keys, unchecked."""
        return self._canonical(*self._ring(), terms)

    def _match(self, other: "_FpTable") -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self._ring() != other._ring():
            mine, theirs = (", ".join(map(str, x._ring())) for x in (self, other))
            raise ValueError(f"{type(self).__name__} ring mismatch: {mine} vs {theirs}")

    def __add__(self, other):
        self._match(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0) + c
        return self._like(acc)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        return self._like({key: k * c for key, k in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._ring() == other._ring() and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p}, {self.render()})"


class _ExpPoly(_FpTable):
    """Polynomial in n generators keyed by exponent tuples.

    The ring descriptor is the generator letter and whether generator j has
    weight j or weight 1; the graded order (weighted degree first, then
    exponents, largest first within a degree) fixes the rendering.
    """

    __slots__ = ("n",)
    _LETTER = "t"
    _WEIGHTED = False

    def __init__(self, n: int, p: Prime, terms: Mapping[Monomial, int] | None = None):
        if n < 1:
            raise ValueError(f"need at least one generator, got n={n}")
        self.n = n
        terms = terms or {}
        for mono in terms:
            if len(mono) != n:
                raise ValueError(f"exponent vector {mono} has length {len(mono)}, expected {n}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
        super().__init__(p, {tuple(mono): c for mono, c in terms.items()})

    @classmethod
    def _canonical(cls, n: int, p: Prime, terms: Mapping[Monomial, int]):
        out = super()._canonical(p, terms)
        out.n = n
        return out

    def _ring(self) -> tuple:
        return (self.n, self.p)

    @classmethod
    def zero(cls, n: int, p: Prime):
        return cls(n, p)

    @classmethod
    def constant(cls, n: int, p: Prime, c: int):
        return cls(n, p, {(0,) * n: c})

    @classmethod
    def one(cls, n: int, p: Prime):
        return cls.constant(n, p, 1)

    @classmethod
    def _generator(cls, n: int, p: Prime, i: int):
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        return cls(n, p, {_unit(n, i): 1})

    def _mul(self, other):
        # Bound as each ring's own ``__mul__``, where the benchmark's tracer wraps it.
        # A one-off product unpacks every term it makes, so it keeps tuple keys;
        # long sums of products go through ``_PackedSum`` instead.
        self._match(other)
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                acc[m] = acc.get(m, 0) + c1 * c2
        return self._like(acc)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = self.one(self.n, self.p)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def _degree(self, mono: Monomial) -> int:
        return sum(j * e for j, e in enumerate(mono, 1)) if self._WEIGHTED else sum(mono)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(
            self.terms.items(), key=lambda kv: (self._degree(kv[0]), tuple(-e for e in kv[0]))
        )

    def render(self) -> str:
        """Canonical text form, e.g. ``t1^2*t2 + t1*t2^2``."""
        if not self.terms:
            return "0"
        x = self._LETTER
        parts = []
        for mono, c in self.sorted_terms():
            factors = [f"{x}{i}" if e == 1 else f"{x}{i}^{e}" for i, e in enumerate(mono, 1) if e]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, p={self.p}, {self.render()})"


@lru_cache(maxsize=None)
def _slot_units(n: int, width: int) -> tuple[int, ...]:
    """Packed keys of t1, ..., tn in slots of ``width`` bits: t_k is 1 << width (k - 1)."""
    return tuple(1 << shift for shift in range(0, n * width, width))


@lru_cache(maxsize=None)
def _packed_elementary(n: int, j: int, width: int) -> Mapping[int, int]:
    """e_j in n variables under packed keys, as a read-only view."""
    return MappingProxyType(dict.fromkeys(map(sum, combinations(_slot_units(n, width), j)), 1))


def _mac(acc: dict[int, int], a: Mapping[int, int], b: Mapping[int, int], scale: int) -> dict:
    """Add scale * a * b into acc, all three keyed by packed exponents; returns acc."""
    get = acc.get
    for k1, c1 in a.items():
        c1 *= scale
        for k2, c2 in b.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


class _PackedSum:
    """A sum of products in F_p[t1, ..., tn], under packed-integer keys.

    An exponent vector is one integer whose slot k, W bits wide, holds the k-th
    exponent (Monagan and Pearce's packed monomials); a monomial packs as its
    exponents times the generators' keys ``_units``. W is the narrowest whole
    number of bytes that holds ``bound``. While every exponent of every
    product stays at most ``bound``, the product of two monomials is the sum of
    their keys, and no slot carries into the next. Products add into
    ``terms`` unreduced, and ``result`` reduces the whole sum mod p once and
    unpacks, by shifts and masks, only the entries that survive.
    """

    __slots__ = ("n", "p", "_width", "_units", "terms")

    def __init__(self, n: int, p: Prime, bound: int) -> None:
        """An empty sum in n generators over F_p, for exponents up to ``bound``."""
        self.n, self.p = n, p
        self._width = 8 * max(1, -(-bound.bit_length() // 8))
        self._units = _slot_units(n, self._width)
        self.terms: dict[int, int] = {}

    def elementary(self, j: int) -> Mapping[int, int]:
        """e_j under packed keys, for 0 <= j <= n."""
        return _packed_elementary(self.n, j, self._width)

    def power_sum(self, e: int) -> dict[int, int]:
        """t1^e + ... + tn^e under packed keys."""
        return {u * e: 1 for u in self._units}

    def mac(self, a: Mapping[int, int], b: Mapping[int, int], scale: int = 1) -> None:
        """Add scale * a * b, two packed term tables, into the sum, unreduced."""
        _mac(self.terms, a, b, scale)

    def product(self, a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
        """The packed product a * b, reduced mod p."""
        q = self.p.value
        return {k: r for k, c in _mac({}, a, b, 1).items() if (r := c % q)}

    def power(self, a: Mapping[int, int], e: int) -> Mapping[int, int]:
        """The packed power a^e for e >= 1 by binary powering, reduced mod p; a^1 is a."""
        out = None
        while True:
            if e & 1:
                out = a if out is None else self.product(out, a)
            e >>= 1
            if not e:
                return out
            a = self.product(a, a)

    def result(self) -> "MultiPoly":
        """The sum reduced mod p, with its surviving keys unpacked."""
        q, width = self.p.value, self._width
        shifts, mask = range(0, self.n * width, width), (1 << width) - 1
        live = {
            tuple((k >> s) & mask for s in shifts): r
            for k, c in self.terms.items()
            if (r := c % q)
        }
        return MultiPoly._canonical(self.n, self.p, live)


class MultiPoly(_ExpPoly):
    """Element of F_p[t1, ..., tn] in canonical sparse form (no zero coefficients)."""

    __slots__ = ()
    __mul__ = _ExpPoly._mul

    @classmethod
    def variable(cls, n: int, p: Prime, i: int) -> "MultiPoly":
        """The generator t_i, 1-based."""
        return cls._generator(n, p, i)

    def total_degree(self) -> int:
        """Largest internal degree among terms, -1 for the zero polynomial."""
        return max(map(self._degree, self.terms), default=-1)


class UniPoly(_FpTable):
    """Element of F_p[u], sparse by exponent of u."""

    __slots__ = ()

    def __init__(self, p: Prime, coeffs: Mapping[int, int] | None = None):
        coeffs = coeffs or {}
        for e in coeffs:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
        super().__init__(p, coeffs)

    @property
    def coeffs(self) -> dict[int, int]:
        return self.terms

    @classmethod
    def zero(cls, p: Prime) -> "UniPoly":
        return cls(p)

    @classmethod
    def one(cls, p: Prime) -> "UniPoly":
        return cls(p, {0: 1})

    @classmethod
    def monomial(cls, p: Prime, e: int, c: int = 1) -> "UniPoly":
        return cls(p, {e: c})

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._match(other)
        acc: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return self._like(acc)

    def coefficient(self, e: int) -> int:
        return self.terms.get(e, 0)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
            else:
                u = "u" if e == 1 else f"u^{e}"
                parts.append(u if c == 1 else f"{c}*{u}")
        return " + ".join(parts)


@lru_cache(maxsize=None)
def elementary_sym(n: int, i: int, p: Prime) -> MultiPoly:
    """The i-th elementary symmetric polynomial in n variables; e_0 = 1, e_i = 0 past n."""
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    if i == 0:
        return MultiPoly.one(n, p)
    if i > n:
        return MultiPoly.zero(n, p)
    terms: dict[Monomial, int] = {}
    for subset in combinations(range(n), i):
        mono = tuple(1 if j in subset else 0 for j in range(n))
        terms[mono] = 1
    return MultiPoly._canonical(n, p, terms)


def power_sum(n: int, i: int, p: Prime) -> MultiPoly:
    """t1^i + ... + tn^i for i >= 1. The index 0 case is deliberately undefined."""
    if n < 1:
        raise ValueError(f"need at least one generator, got n={n}")
    if i < 1:
        raise ValueError(f"power sums start at index 1, got {i}")
    terms = {(0,) * j + (i,) + (0,) * (n - 1 - j): 1 for j in range(n)}
    return MultiPoly._canonical(n, p, terms)


def is_symmetric(f: MultiPoly) -> bool:
    """True iff f is fixed by every adjacent transposition of variables."""
    for k in range(f.n - 1):
        swapped: dict[Monomial, int] = {}
        for mono, c in f.terms.items():
            m = list(mono)
            m[k], m[k + 1] = m[k + 1], m[k]
            swapped[tuple(m)] = c
        if swapped != f.terms:
            return False
    return True


def diagonal_eval(f: MultiPoly) -> UniPoly:
    """Image of f under the diagonal substitution ti -> u for every i."""
    acc: dict[int, int] = {}
    for mono, c in f.terms.items():
        d = sum(mono)
        acc[d] = acc.get(d, 0) + c
    return UniPoly._canonical(f.p, acc)


