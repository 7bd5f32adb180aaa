"""The abstract ring F_p[c1, ..., cn] of unitary characteristic classes.

The generator cj carries weighted degree j (cohomological degree 2j). Two
ring maps are implemented:

* ``iota_star`` injects into the torus ring by sending cj to the j-th
  elementary symmetric polynomial;
* ``phi_star`` restricts to the scalar circle, sending cj to binom(n, j) u^j.

``phi_star`` is computed directly from the binomial formula; the composite
route through ``iota_star`` and the diagonal evaluation is kept as the
independent oracle in the tests.

``iota_star`` and ``verify_newton`` expand their sums of products as one
``polyring._PackedSum`` each: every exponent vector is a packed integer,
so a product of monomials is one integer addition, and the sum is reduced
mod p once, at the end, with only its surviving terms unpacked (none for a
vanishing Newton residual).

Power sums are lifted to this ring through the classical Newton identities
below the variable count and through the companion recurrence above it.
Lifts are memoized per ring in a ``functools.lru_cache``; ``phi_power_sum``
runs their restrictions as one scalar pass over the mod-p Newton taps.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .fp import Prime, _lucas
from .polyring import MultiPoly, UniPoly, _ExpPoly, _PackedSum

__all__ = [
    "ChernPoly",
    "iota_star",
    "phi_star",
    "lift_power_sum",
    "phi_power_sum",
    "verify_newton",
]

Exponents = tuple[int, ...]


class ChernPoly(_ExpPoly):
    """Polynomial in c1..cn over F_p, canonical sparse form, weighted grading."""

    __slots__ = ()
    _LETTER = "c"
    _WEIGHTED = True
    __mul__ = _ExpPoly._mul

    @classmethod
    def generator(cls, n: int, p: Prime, j: int) -> "ChernPoly":
        """The class cj, 1-based, of weighted degree j."""
        return cls._generator(n, p, j)

    def weighted_degree(self) -> int:
        """Largest weighted degree among terms, -1 for zero."""
        return max(map(self._degree, self.terms), default=-1)

    def partial(self, j: int) -> "ChernPoly":
        """Formal partial derivative with respect to cj, 1-based."""
        if not 1 <= j <= self.n:
            raise ValueError(f"generator index {j} out of range 1..{self.n}")
        acc: dict[Exponents, int] = {}
        for mono, c in self.terms.items():
            e = mono[j - 1]
            if e == 0:
                continue
            target = mono[: j - 1] + (e - 1,) + mono[j:]
            acc[target] = acc.get(target, 0) + c * e
        return self._like(acc)


def iota_star(poly: ChernPoly) -> MultiPoly:
    """Substitute cj -> elementary_sym(n, j) and expand in the torus ring.

    The expansion is one packed sum: no torus exponent passes the largest
    unweighted degree of a term, so that degree bounds the slots. Each term's
    powers of the e_j are formed on packed keys, and its last factor is
    multiplied straight into the sum, which is reduced mod p once at the end.
    """
    n, p = poly.n, poly.p
    acc = _PackedSum(n, p, max(map(sum, poly.terms), default=0))
    one = {0: 1}  # key 0 is the monomial 1
    for mono, c in poly.terms.items():
        *head, last = [acc.power(acc.elementary(j), e) for j, e in enumerate(mono, 1) if e] or [one]
        acc.mac(reduce(acc.product, head) if head else one, last, c)
    return acc.result()


def phi_star(poly: ChernPoly) -> UniPoly:
    """Restriction to F_p[u]: cj -> binom(n, j) u^j, extended multiplicatively."""
    n, q = poly.n, poly.p.value
    acc: dict[int, int] = {}
    for mono, c in poly.terms.items():
        coeff = c
        degree = 0
        for j, e in enumerate(mono, start=1):
            if e:
                coeff = coeff * pow(_lucas(n, j, q), e, q) % q
                degree += j * e
                if not coeff:
                    break
        if coeff:
            acc[degree] = acc.get(degree, 0) + coeff
    return UniPoly._canonical(poly.p, acc)


def lift_power_sum(m: int, n: int, p: Prime) -> ChernPoly:
    """The class S_m with iota_star(S_m) equal to the m-th power sum.

    Newton's identities drive the construction: below the generator count the
    classical form with the trailing m*cm term, above it the pure recurrence
    S_m = sum_j (-1)^(j+1) cj S_(m-j). Index 0 is rejected rather than given
    a convention.
    """
    if m < 1:
        raise ValueError(f"power sums start at index 1, got {m}")
    for below in range(1, m):  # bottom-up, so no build recurses into a cold lift
        _lift(below, n, p)
    return _lift(m, n, p)


@lru_cache(maxsize=None)
def _lift(m: int, n: int, p: Prime) -> ChernPoly:
    """S_m, built from S_(m-1), ..., S_(m-n) read from this same cache."""
    acc = ChernPoly.zero(n, p)
    for j in range(1, min(m - 1, n) + 1):
        sign = 1 if j % 2 == 1 else -1
        acc = acc + ChernPoly.generator(n, p, j).scale(sign) * _lift(m - j, n, p)
    if m <= n:
        sign = 1 if m % 2 == 1 else -1
        acc = acc + ChernPoly.generator(n, p, m).scale(sign * m)
    return acc


def phi_power_sum(m: int, n: int, p: Prime) -> UniPoly:
    """Restriction of the m-th power sum to F_p[u], as a scalar recurrence.

    Runs the same Newton recurrence as ``lift_power_sum`` but directly on the
    u^m coefficients, so it stays linear-time in m even where the full lift
    would have a huge term count. Agrees with phi_star(lift_power_sum(m))
    everywhere, and equals (n mod p) u^m.
    """
    if m < 1:
        raise ValueError(f"power sums start at index 1, got {m}")
    q = p.value
    taps = _newton_taps(n, q)
    sums: list[int] = []
    for i in range(1, m + 1):
        val = 0
        for j, c in taps:
            if j >= i:
                if j == i:  # the trailing i*ci term below the generator count
                    val += c * i
                break
            val += c * sums[i - j - 1]
        sums.append(val % q)
    return UniPoly._canonical(p, {m: sums[-1]})


@lru_cache(maxsize=None)
def _newton_taps(n: int, q: int) -> tuple[tuple[int, int], ...]:
    """Nonzero taps (j, (-1)^(j+1) binom(n, j) mod q) of the Newton recurrence.

    Ascending in j over 1 <= j <= n. By Lucas' theorem only the j whose
    base-q digits sit below those of n survive, so when q divides n most
    taps vanish; at n = 2^a with q = 2 there is exactly one.
    """
    taps = []
    for j in range(1, n + 1):
        c = _lucas(n, j, q)
        if c:
            taps.append((j, c if j % 2 == 1 else -c % q))
    return tuple(taps)


def verify_newton(n: int, i: int, p: Prime) -> tuple[bool, MultiPoly]:
    """Check the power-sum relation of degree n+i+1 directly in the torus ring.

    Expands s_(n+i+1) + sum_j (-1)^j e_j s_(n+i+1-j) with elementary symmetric
    polynomials and power sums, no lifting involved, and reports whether the
    residual is exactly zero.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    top = n + i + 1
    acc = _PackedSum(n, p, top)  # no exponent of the sum passes top
    for j in range(n + 1):
        acc.mac(acc.elementary(j), acc.power_sum(top - j), (-1) ** j)
    residual = acc.result()  # the one reduction of the whole sum
    return residual.is_zero(), residual
