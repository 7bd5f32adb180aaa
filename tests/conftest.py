import random

from hypothesis import HealthCheck, settings

from gaugetorsion import MultiPoly, Prime
from gaugetorsion.cli import _random_poly

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("suite")

PRIMES_235 = (Prime(2), Prime(3), Prime(5))


def random_multipoly(
    rng: random.Random,
    n: int,
    p: Prime,
    max_exp: int = 3,
    max_terms: int = 4,
) -> MultiPoly:
    """Seeded random sparse polynomial, for deterministic bulk sweeps."""
    return _random_poly(rng, n, p, max_exp, max_terms)
