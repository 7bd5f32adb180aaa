"""Per-prime and global torsion decisions with machine-checkable certificates.

For a bundle class k over the 2-sphere with structure group PU(n), the
mapping-space component has p-torsion exactly when p divides both n and k.
``decide_p`` settles one prime and returns a Certificate carrying every
mechanized quantity behind the verdict; ``decide_global`` covers all prime
divisors of n and reduces to the gcd criterion.

Two independent routes to each verdict are computed and compared on every
call: the divisibility table, and the cohomological chain through the
restriction of c1 and the resolved alpha_p. A disagreement raises rather
than returning a wrong certificate.

The recurrence check and the matrix order both come from the alpha engine's
one cached pass per ring in ``suspension``: the order is the first p-power
step at which its impulse response returns to its starting window. This
module imports nothing from ``matrices``, whose order searches are oracles.
The primes of n are validated once per n, a certificate is built once per
set of checked quantities, and a global result once per (n, k) and set of
certificates; the comparison of the two routes, and the gcd criterion, run
on every call, before any result is taken from its memo. Each public call
reads its arguments once, before any memo is read, so a float is refused on
a warm key as on a cold one; ``_decide`` is the core behind both.

The certificate annotations record, in plain language, the homotopy-theoretic
equivalences that justify reading the algebra as a torsion statement. They
are not checkable by this library and are carried as context only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd
from operator import is_

from .chern import ChernPoly, phi_star
from .fp import Prime, _integer, _prime
from .suspension import MechanizationError, _resolve_alpha, _symbolic_alphas

__all__ = [
    "TorsionKind",
    "Verdict",
    "Certificate",
    "GlobalResult",
    "decide_p",
    "decide_global",
    "ANNOTATIONS",
]

ANNOTATIONS: tuple[str, ...] = (
    "p-torsion in the mapping-space component is equivalent to a nonzero "
    "odd-degree class in its mod-p cohomology, and to the vanishing of the "
    "fiber restriction on second cohomology",
    "the second cohomology of the unitary mapping space is spanned by the "
    "basepoint pullback of c1 and the double suspension of c2",
    "no p-torsion iff phi_c1 != 0 or alpha_p != 0; both vanish exactly when "
    "p divides n and k",
)


class TorsionKind(Enum):
    NO_TORSION_CASE1 = "NoTorsionCase1"  # n not divisible by p
    NO_TORSION_CASE2 = "NoTorsionCase2"  # p | n but p does not divide k
    TORSION = "Torsion"  # p | n and p | k


_TORSION = TorsionKind.TORSION  # read once, not per certificate of a warm call


@dataclass(frozen=True)
class Verdict:
    kind: TorsionKind
    n: int
    k: int
    p: int


@dataclass(frozen=True)
class Certificate:
    """Verdict plus every mechanized quantity that supports it.

    When p does not divide n, only phi_c1 is defined and it is nonzero; the
    alpha and matrix fields are absent. When p divides n, alpha_p equals
    k mod p, recurrence_check records that the derived alpha recurrence
    matches the companion matrix, and matrix_order is the p-power order of
    that matrix mod p.
    """

    verdict: Verdict
    phi_c1: int
    alpha_p: int | None
    matrix_order: int | None
    recurrence_check: bool | None
    annotations: tuple[str, ...] = ANNOTATIONS

    def to_dict(self) -> dict:
        return {
            "n": self.verdict.n,
            "k": self.verdict.k,
            "p": self.verdict.p,
            "verdict": self.verdict.kind.value,
            "phi_c1": self.phi_c1,
            "alpha_p": self.alpha_p,
            "matrix_order": self.matrix_order,
            "recurrence_check": self.recurrence_check,
            "annotations": list(self.annotations),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


@dataclass(frozen=True)
class GlobalResult:
    n: int
    k: int
    torsion_free: bool
    primes: tuple[Certificate, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "torsion_free": self.torsion_free,
            "certificates": [c.to_dict() for c in self.primes],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


@lru_cache(maxsize=None)
def _ring_data(n: int, p: Prime) -> tuple[int, bool | None, int | None]:
    """k-independent facts of one ring: phi_c1, and for p | n the recurrence
    check and the matrix order, both from the alpha engine's one pass, which
    raises unless the row checks and the order is a p-power."""
    phi_c1 = phi_star(ChernPoly.generator(n, p, 1)).coefficient(1)
    if n % p.value != 0:
        return phi_c1, None, None
    return phi_c1, True, _symbolic_alphas(n, p)[0]


def decide_p(n: int, k: int, p: Prime) -> Certificate:
    """Decide p-torsion for the class k bundle component; k reduces mod n.

    n, k and p are read once, by ``fp._integer`` and ``fp._prime``, n's floor
    last, before any memo is read: a float key hashes like the int it equals,
    so a warm memo would otherwise answer a call a cold one refuses.
    """
    n, k, p = _integer(n, "n"), _integer(k, "k"), _prime(p)
    n = _integer(n, "n", 2)
    return _decide(n, k % n, p)


def _decide(n: int, k: int, p: Prime) -> Certificate:
    """``decide_p`` for checked n >= 2, 0 <= k < n and a Prime p."""
    q = p.value
    phi_c1, recurrence_check, matrix_order = _ring_data(n, p)
    alpha_p = _resolve_alpha(n, p, k % q).value.residue if n % q == 0 else None

    table_torsion = n % q == 0 and k % q == 0
    mech_torsion = phi_c1 == 0 and alpha_p == 0
    if table_torsion != mech_torsion:
        raise MechanizationError(
            f"divisibility and cohomological routes disagree at n={n}, k={k}, p={p}"
        )
    return _certificate(n, k, q, phi_c1, alpha_p, matrix_order, recurrence_check)


@lru_cache(maxsize=4096)
def _certificate(
    n: int,
    k: int,
    q: int,
    phi_c1: int,
    alpha_p: int | None,
    matrix_order: int | None,
    recurrence_check: bool | None,
) -> Certificate:
    """The certificate of checked quantities, memoized: a repeated decision
    shares one frozen value. Keyed by every field it holds, so an entry can
    only be reused for the same quantities; the keys of every n <= 40
    number 1350."""
    if n % q != 0:
        kind = TorsionKind.NO_TORSION_CASE1
    elif k % q != 0:
        kind = TorsionKind.NO_TORSION_CASE2
    else:
        kind = TorsionKind.TORSION
    return Certificate(
        verdict=Verdict(kind=kind, n=n, k=k, p=q),
        phi_c1=phi_c1,
        alpha_p=alpha_p,
        matrix_order=matrix_order,
        recurrence_check=recurrence_check,
    )


@lru_cache(maxsize=4096)
def _ring_primes(n: int) -> tuple[Prime, ...]:
    """The prime divisors of n, increasing, each validated once: later lookups
    keyed by one of them find the same object."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(Prime(q) for q in out)


@lru_cache(maxsize=4096)
def _global_slot(n: int, k: int) -> list[GlobalResult | None]:
    """The one-entry slot holding the last ``GlobalResult`` built for (n, k),
    empty at first; bounded like ``_certificate``. The keys of every n <= 40
    number 819."""
    return [None]


def decide_global(n: int, k: int) -> GlobalResult:
    """Torsion across all primes: free iff k is relatively prime to n.

    k is reduced mod n first; k = 0 is the trivial class, with gcd(n, 0) = n.
    Every call decides each prime of n through ``_decide``, so both routes
    are compared, and checks the per-prime certificates against the gcd
    criterion; a disagreement raises instead of returning a broken result.
    Only then is the result taken from a memo keyed by (n, k). A stored result
    is reused when its certificates are the very objects this call checked;
    otherwise a new one is built and stored.
    """
    n, k = _integer(n, "n"), _integer(k, "k")
    n = _integer(n, "n", 2)
    k = k % n
    certificates = tuple([_decide(n, k, p) for p in _ring_primes(n)])
    torsion_free = gcd(n, k) == 1
    any_torsion = any([c.verdict.kind is _TORSION for c in certificates])
    if torsion_free == any_torsion:
        raise MechanizationError(
            f"gcd criterion and per-prime certificates disagree at n={n}, k={k}"
        )
    slot = _global_slot(n, k)
    held = slot[0]
    if held is not None and all(map(is_, held.primes, certificates)):
        return held
    held = slot[0] = GlobalResult(n=n, k=k, torsion_free=torsion_free, primes=certificates)
    return held
