"""Reduced power operations and Milnor primitive derivations on the torus ring.

Two independent implementations of the primitives Q_level are kept side by
side and cross-checked by the test suite:

* ``milnor_q_closed`` extends Q(ti) = ti^(p^level) over monomials by the
  Leibniz rule, the derivation characterization;
* ``milnor_q_recursive`` unwinds the commutator recursion
  Q_level = R^(p^(level-1)) Q_(level-1) - Q_(level-1) R^(p^(level-1)),
  starting from Q_1 = R^1, where R^i is the i-th reduced power.

On a single generator, R^i(t^e) = binom(e, i) t^(e + i(p-1)); products are
handled by summing over all ways of distributing i across the variables,
which is the Cartan formula pushed down to exponent vectors. R^i walks only
each monomial's support, the variables with a nonzero exponent, over Lucas
digit rows cut at i, which list only the nonvanishing shares; the last
support variable takes what is left of i by one lookup. At p = 2 the same
formula realizes the even squares Sq^(2i) restricted to the subring
generated by degree-2 classes, the only place this module is ever applied.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .fp import Prime
from .polyring import Monomial, MultiPoly, elementary_sym, power_sum

__all__ = [
    "reduced_power",
    "milnor_q_closed",
    "milnor_q_recursive",
    "check_milnor_on_c2",
]


@lru_cache(maxsize=None)
def _lucas_row(e: int, top: int, p: int) -> tuple[tuple[int, int], ...]:
    """Every (a, binom(e, a) mod p) with a <= top and a nonzero value, ascending in a:
    by Lucas' theorem, the a whose base-p digits sit under e's, built digit by
    digit up to the first place value above top, so a huge e costs its digits."""
    row, place = [(0, 1)], 1
    while place <= top:
        e, d = divmod(e, p)
        row = [  # d < p, so every binom(d, k) is a unit mod p
            (k * place + a, comb(d, k) * c % p)
            for k in range(min(d, top // place) + 1)
            for a, c in row
            if k * place + a <= top
        ]
        place *= p
    return tuple(row)


@lru_cache(maxsize=None)
def _lucas_share(e: int, top: int, p: int) -> dict[int, int]:
    """The Lucas row of e cut at top as a lookup, a -> binom(e, a) mod p; read only."""
    return dict(_lucas_row(e, top, p))


def reduced_power(i: int, f: MultiPoly) -> MultiPoly:
    """The i-th reduced power R^i of f; R^0 is the identity.

    Each monomial walks only its support, the slots with a nonzero exponent.
    Every support slot but the last runs over its Lucas row cut at i, keeping
    the nonzero shares it takes; it stops once the running sum s passes i and
    skips what the slots still to run cannot make up. The last slot's share is
    then i - s, read from its row as a lookup. Each split that survives
    patches its shares into one copy of the monomial.
    """
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    if i == 0:
        return f
    p = f.p.value
    acc: dict[Monomial, int] = {}
    for mono, c in f.terms.items():
        support = [k for k, e in enumerate(mono) if e]
        if not support:
            continue  # R^i of a constant is 0
        k_last = support.pop()
        e_last = mono[k_last]
        last = _lucas_share(e_last, i, p)
        rows = [_lucas_row(mono[k], i, p) for k in support]
        # the most the slots still to run can hold, the last slot's included
        rest = _lucas_row(e_last, i, p)[-1][0] + sum(row[-1][0] for row in rows)
        partial = [(0, c, ())]  # (running sum, coefficient, nonzero shares as (slot, share))
        for k, row in zip(support, rows):
            rest -= row[-1][0]
            grown = []
            for s, coeff, shares in partial:
                for a, b in row:
                    if s + a > i:
                        break
                    if s + a + rest >= i:
                        grown.append((s + a, coeff * b, (*shares, (k, a)) if a else shares))
            partial = grown
        for s, coeff, shares in partial:
            b = last.get(i - s)
            if b:
                target = list(mono)
                target[k_last] = e_last + (i - s) * (p - 1)
                for k, a in shares:
                    target[k] += a * (p - 1)
                target = tuple(target)
                acc[target] = acc.get(target, 0) + coeff * b
    return f._like(acc)


def milnor_q_closed(level: int, f: MultiPoly) -> MultiPoly:
    """Q_level(f) as a derivation: Q(ti) = ti^(p^level), extended by Leibniz."""
    if level < 1:
        raise ValueError(f"need level >= 1, got {level}")
    q = f.p.value**level
    acc: dict[Monomial, int] = {}
    for mono, c in f.terms.items():
        for j, e in enumerate(mono):
            if e:
                target = mono[:j] + (e - 1 + q,) + mono[j + 1 :]
                acc[target] = acc.get(target, 0) + c * e
    return f._like(acc)


def milnor_q_recursive(level: int, f: MultiPoly) -> MultiPoly:
    """Q_level(f) by the commutator recursion through reduced powers."""
    if level < 1:
        raise ValueError(f"need level >= 1, got {level}")
    if level == 1:
        return reduced_power(1, f)
    i = f.p.value ** (level - 1)
    lower = milnor_q_recursive(level - 1, f)
    return reduced_power(i, lower) - milnor_q_recursive(level - 1, reduced_power(i, f))


def check_milnor_on_c2(
    n: int, p: Prime, level: int
) -> tuple[bool, MultiPoly, MultiPoly]:
    """Check Q_level(e_2) = s_1 * s_(p^level) - s_(p^level + 1) in n variables.

    Both Q implementations are evaluated; the check passes only if each equals
    the power-sum side. Returns (ok, lhs, rhs) with lhs from the recursion.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if level < 1:
        raise ValueError(f"need level >= 1, got {level}")
    e2 = elementary_sym(n, 2, p)
    q = p.value**level
    rhs = power_sum(n, 1, p) * power_sum(n, q, p) - power_sum(n, q + 1, p)
    lhs_rec = milnor_q_recursive(level, e2)
    lhs_closed = milnor_q_closed(level, e2)
    ok = lhs_rec == rhs and lhs_closed == rhs
    return ok, lhs_rec, rhs
