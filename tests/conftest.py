import random

import pytest
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


@pytest.fixture
def uncached_engine(monkeypatch):
    """The alpha engine runs uncached, so every ring it is asked for is cold."""
    import gaugetorsion.suspension as suspension_mod
    import gaugetorsion.torsion as torsion_mod

    uncached = suspension_mod._symbolic_alphas.__wrapped__
    for module in (suspension_mod, torsion_mod):
        monkeypatch.setattr(module, "_symbolic_alphas", uncached)


@pytest.fixture
def perturbed_taps(monkeypatch, uncached_engine):
    """The alpha engine runs uncached, with its middle Newton tap off by one."""
    import gaugetorsion.suspension as suspension_mod

    newton_taps = suspension_mod._newton_taps

    def perturbed(n, q):
        taps = list(newton_taps(n, q))
        j, c = taps[len(taps) // 2]
        taps[len(taps) // 2] = (j, (c + 1) % q)
        return tuple(taps)

    monkeypatch.setattr(suspension_mod, "_newton_taps", perturbed)
