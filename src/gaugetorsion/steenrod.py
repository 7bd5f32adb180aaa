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
which is the Cartan formula pushed down to exponent vectors. At p = 2 the
same formula realizes the even squares Sq^(2i) restricted to the subring
generated by degree-2 classes, the only place this module is ever applied.
"""

from __future__ import annotations

from typing import Iterator

from .fp import Prime, _lucas
from .polyring import Monomial, MultiPoly, elementary_sym, power_sum

__all__ = [
    "reduced_power",
    "milnor_q_closed",
    "milnor_q_recursive",
    "check_milnor_on_c2",
]


def _bounded_compositions(total: int, bounds: Monomial) -> Iterator[tuple[int, ...]]:
    """All tuples (i1..in) with sum total and 0 <= ij <= bounds[j]; a slot
    starts at what the later slots, of capacity rest, cannot hold, so no
    prefix is walked that cannot complete (bounds near a large p)."""
    n = len(bounds)

    def rec(
        pos: int, remaining: int, rest: int, prefix: tuple[int, ...]
    ) -> Iterator[tuple[int, ...]]:
        if pos == n - 1:
            if remaining <= bounds[pos]:
                yield prefix + (remaining,)
            return
        later = rest - bounds[pos + 1]
        for i in range(max(0, remaining - rest), min(remaining, bounds[pos]) + 1):
            yield from rec(pos + 1, remaining - i, later, prefix + (i,))

    yield from rec(0, total, sum(bounds) - bounds[0], ())


def reduced_power(i: int, f: MultiPoly) -> MultiPoly:
    """The i-th reduced power R^i of f; R^0 is the identity."""
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    if i == 0:
        return f
    p = f.p.value
    shift = p - 1
    acc: dict[Monomial, int] = {}
    for mono, c in f.terms.items():
        if sum(mono) < i:
            continue
        for split in _bounded_compositions(i, mono):
            coeff = c
            for e, ij in zip(mono, split):
                if ij:
                    coeff = coeff * _lucas(e, ij, p) % p
                    if not coeff:
                        break
            if not coeff:
                continue
            target = tuple(e + ij * shift for e, ij in zip(mono, split))
            acc[target] = acc.get(target, 0) + coeff
    return f._like(acc)


def milnor_q_closed(level: int, f: MultiPoly) -> MultiPoly:
    """Q_level(f) as a derivation: Q(ti) = ti^(p^level), extended by Leibniz."""
    if level < 1:
        raise ValueError(f"need level >= 1, got {level}")
    q = f.p.value**level
    acc: dict[Monomial, int] = {}
    for mono, c in f.terms.items():
        for j, e in enumerate(mono):
            if e == 0:
                continue
            coeff = c * e
            target = tuple(
                ek - 1 + q if k == j else ek for k, ek in enumerate(mono)
            )
            acc[target] = acc.get(target, 0) + coeff
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
