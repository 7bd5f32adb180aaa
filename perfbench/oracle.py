"""Independent answers the benchmark checks the library against.

Everything here is computed from divisibility, gcds and closed forms in plain
Python. Nothing imports gaugetorsion, so a bug in the library cannot also hide
in its own check.
"""

from __future__ import annotations

from math import gcd


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p_power_ceil(n: int, p: int) -> int:
    q = 1
    while q < n:
        q *= p
    return q


def certificate(n: int, k: int, p: int) -> dict:
    """The fields of ``Certificate.to_dict`` that the verdict rests on."""
    k %= n
    divisible = n % p == 0
    if not divisible:
        kind = "NoTorsionCase1"
    elif k % p:
        kind = "NoTorsionCase2"
    else:
        kind = "Torsion"
    return {
        "n": n,
        "k": k,
        "p": p,
        "verdict": kind,
        "phi_c1": n % p,
        "alpha_p": k % p if divisible else None,
        "matrix_order": p_power_ceil(n, p) if divisible else None,
        "recurrence_check": True if divisible else None,
    }


def certificate_ok(cert: dict, n: int, k: int, p: int) -> bool:
    want = certificate(n, k, p)
    return all(cert.get(key) == value for key, value in want.items())


def global_ok(result: dict, n: int, k: int) -> bool:
    """Check ``GlobalResult.to_dict`` against the gcd criterion."""
    k %= n
    certs = result.get("certificates", [])
    primes = prime_divisors(n)
    return (
        result.get("n") == n
        and result.get("k") == k
        and result.get("torsion_free") is (gcd(n, k) == 1)
        and [c.get("p") for c in certs] == primes
        and all(certificate_ok(c, n, k, p) for c, p in zip(certs, primes))
    )


def sweep_csv(n_max: int) -> str:
    """The exact stdout of ``gaugetorsion sweep --n-max N --format csv``."""
    lines = ["n,k,torsion_free,witness_prime"]
    for n in range(2, n_max + 1):
        for k in range(n):
            g = gcd(n, k)
            witness = "" if g == 1 else str(prime_divisors(g)[0])
            lines.append(f"{n},{k},{str(g == 1).lower()},{witness}")
    return "\n".join(lines) + "\n"


def power_sum_terms(n: int, m: int) -> dict:
    """Terms of t1^m + ... + tn^m, m >= 1: n distinct monomials, coefficient 1."""
    return {tuple(m if j == i else 0 for j in range(n)): 1 for i in range(n)}


def milnor_c2_terms(n: int, q: int) -> dict:
    """Terms of s_1 s_q - s_(q+1) = sum over i != j of t_i t_j^q."""
    out = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                mono = [0] * n
                mono[i] = 1
                mono[j] = q
                out[tuple(mono)] = 1
    return out


def milnor_derivation_terms(terms: dict, p: int, level: int) -> dict:
    """Q_level on a sparse polynomial: the derivation with t_i -> t_i^(p^level)."""
    q = p**level
    acc: dict = {}
    for mono, c in terms.items():
        for j, e in enumerate(mono):
            if e:
                target = mono[:j] + (e - 1 + q,) + mono[j + 1 :]
                acc[target] = (acc.get(target, 0) + c * e) % p
    return {m: c for m, c in acc.items() if c}
