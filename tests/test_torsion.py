import json
import sys
import threading
from math import gcd

import pytest

from gaugetorsion import (
    Certificate,
    Prime,
    TorsionKind,
    decide_global,
    decide_p,
    p_power_ceil,
    padic_val,
)

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def test_verdict_examples():
    assert decide_p(3, 1, P2).verdict.kind is TorsionKind.NO_TORSION_CASE1
    assert decide_p(4, 1, P2).verdict.kind is TorsionKind.NO_TORSION_CASE2
    assert decide_p(4, 2, P2).verdict.kind is TorsionKind.TORSION


def test_certificate_fields_when_p_divides_n():
    cert = decide_p(6, 3, P3)
    assert cert.phi_c1 == 0
    assert cert.alpha_p == 3 % 3
    assert cert.recurrence_check is True
    assert cert.matrix_order == p_power_ceil(6, P3)
    assert 3 ** padic_val(cert.matrix_order, P3) == cert.matrix_order


def test_certificate_fields_when_p_misses_n():
    cert = decide_p(5, 2, P3)
    assert cert.verdict.kind is TorsionKind.NO_TORSION_CASE1
    assert cert.phi_c1 == 5 % 3 != 0
    assert cert.alpha_p is None
    assert cert.matrix_order is None
    assert cert.recurrence_check is None


def test_k_reduces_mod_n():
    assert decide_p(4, 6, P2).verdict.k == 2
    assert decide_p(4, 6, P2).verdict.kind is TorsionKind.TORSION
    assert decide_global(4, -1).k == 3


def test_small_n_rejected():
    with pytest.raises(ValueError):
        decide_p(1, 0, P2)
    with pytest.raises(ValueError):
        decide_global(0, 0)


def test_certificate_json_schema():
    blob = decide_p(4, 2, P2).to_json()
    payload = json.loads(blob)
    assert list(payload) == [
        "n",
        "k",
        "p",
        "verdict",
        "phi_c1",
        "alpha_p",
        "matrix_order",
        "recurrence_check",
        "annotations",
    ]
    assert payload["verdict"] == "Torsion"
    assert payload["alpha_p"] == 0
    assert isinstance(payload["annotations"], list) and payload["annotations"]
    absent = json.loads(decide_p(5, 1, P2).to_json())
    assert absent["alpha_p"] is None
    assert absent["matrix_order"] is None
    assert absent["recurrence_check"] is None


def test_global_examples():
    assert decide_global(2, 1).torsion_free is True
    result = decide_global(6, 4)
    assert result.torsion_free is False
    by_p = {c.verdict.p: c.verdict.kind for c in result.primes}
    assert by_p[2] is TorsionKind.TORSION
    assert by_p[3] is TorsionKind.NO_TORSION_CASE2
    assert decide_global(5, 0).torsion_free is False
    assert decide_global(5, 0).primes[0].verdict.p == 5


def test_global_covers_every_prime_divisor():
    result = decide_global(30, 7)
    assert [c.verdict.p for c in result.primes] == [2, 3, 5]
    assert result.torsion_free is True


def test_global_matches_gcd_criterion():
    for n in range(2, 25):
        for k in range(n):
            result = decide_global(n, k)
            assert result.torsion_free == (gcd(n, k) == 1), (n, k)


def test_class_one_is_always_torsion_free():
    for n in range(2, 25):
        assert decide_global(n, 1).torsion_free


def test_verdict_routes_agree_small_sweep():
    for n in range(2, 25):
        for k in range(n):
            for q in (2, 3, 5, 7, 11, 13):
                cert = decide_p(n, k, Prime(q))
                table = n % q == 0 and k % q == 0
                mech = cert.phi_c1 == 0 and cert.alpha_p == 0
                assert (cert.verdict.kind is TorsionKind.TORSION) == table == mech


def test_certificate_is_frozen():
    cert = decide_p(4, 2, P2)
    with pytest.raises(AttributeError):
        cert.phi_c1 = 1  # type: ignore[misc]
    assert isinstance(cert, Certificate)


def corrupted_alpha(n, p, k):
    """An alpha resolution that comes out off by one."""
    from gaugetorsion.fp import FpScalar
    from gaugetorsion.suspension import AlphaSolution

    wrong = (k + 1) % p.value
    return AlphaSolution(value=FpScalar(wrong, p), trace=(), assigned=((2, 0),))


def test_route_disagreement_raises(monkeypatch):
    """The cross-check between divisibility and cohomology must have teeth:
    a corrupted alpha resolution may not slip into a certificate, also on a
    key whose certificate is already memoized."""
    import gaugetorsion.torsion as torsion_mod
    from gaugetorsion.suspension import MechanizationError

    torsion_mod.decide_p(4, 2, P2)
    monkeypatch.setattr(torsion_mod, "_resolve_alpha", corrupted_alpha)
    with pytest.raises(MechanizationError):
        torsion_mod.decide_p(4, 2, P2)


def test_route_disagreement_raises_on_a_warm_global_key(monkeypatch):
    """A memoized global result does not skip the per-prime decisions."""
    import gaugetorsion.torsion as torsion_mod
    from gaugetorsion.suspension import MechanizationError

    first = torsion_mod.decide_global(12, 6)
    assert torsion_mod.decide_global(12, 6) is first
    monkeypatch.setattr(torsion_mod, "_resolve_alpha", corrupted_alpha)
    with pytest.raises(MechanizationError):
        torsion_mod.decide_global(12, 6)


def test_alpha_memo_is_keyed_by_the_residue_of_k():
    """The decision reads the alpha memo at k mod p: every k of n = 12 fills
    2 entries for p = 2 and 3 for p = 3."""
    import gaugetorsion.torsion as torsion_mod

    torsion_mod._resolve_alpha.cache_clear()
    for k in range(12):
        decide_global(12, k)
    assert torsion_mod._resolve_alpha.cache_info().currsize == 5


def test_warm_global_decision_reads_its_arguments_once(monkeypatch):
    """A warm decision reads n and k once, not once per prime of n."""
    import gaugetorsion.torsion as torsion_mod

    reads = []
    integer = torsion_mod._integer
    monkeypatch.setattr(
        torsion_mod, "_integer", lambda *args: reads.append(args) or integer(*args)
    )
    counts = []
    for n in (2, 210):  # 210 = 2 * 3 * 5 * 7
        torsion_mod.decide_global(n, 1)
        reads.clear()
        torsion_mod.decide_global(n, 1)
        counts.append(len(reads))
    assert counts[0] == counts[1] > 0


def test_repeated_global_decision_returns_one_result():
    first = decide_global(18, 12)
    assert decide_global(18, 12) is first
    assert decide_global(18, 30) is first  # k reduces mod n before the memo is read


def test_cleared_certificates_rebuild_the_result():
    """A result is reused only with the very certificates a call checked: once
    the certificate memo is cleared, the next call stores a new, equal result."""
    import gaugetorsion.torsion as torsion_mod

    first = decide_global(30, 12)
    torsion_mod._certificate.cache_clear()
    again = decide_global(30, 12)
    assert again is not first and again == first
    assert not any(a is b for a, b in zip(again.primes, first.primes))
    assert all(a is decide_p(30, 12, p) for a, p in zip(again.primes, (P2, P3, P5)))
    assert decide_global(30, 12) is again


def test_global_results_fill_safely_from_threads():
    """Threads racing on cold result keys each get correct results; once the
    race is over, each key holds one result that every later call returns."""
    import gaugetorsion.torsion as torsion_mod

    keys = [(n, k) for n in range(2, 41) for k in range(n)]
    torsion_mod._global_slot.cache_clear()
    threads = 4
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def work(i):
        barrier.wait(timeout=60)
        results[i] = [decide_global(n, k) for n, k in keys]

    workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    settled = [decide_global(n, k) for n, k in keys]
    assert all(got == settled for got in results)
    assert all(r.torsion_free == (gcd(n, k) == 1) for (n, k), r in zip(keys, settled))
    assert all(decide_global(n, k) is r for (n, k), r in zip(keys, settled))


def test_non_integers_are_refused_on_warm_keys():
    """A float hashes like the int it equals; the check comes before any memo."""
    decide_global(6, 3)
    decide_p(6, 3, P3)
    for call in (
        lambda: decide_global(6, 3.0),
        lambda: decide_global(6.0, 3),
        lambda: decide_p(6, 3.0, P3),
    ):
        with pytest.raises(TypeError, match="is not an integer: "):
            call()


def test_phi_c1_is_computed_once_per_ring(monkeypatch):
    """phi_c1 is a fact of the ring: warm decisions run no restriction."""
    import gaugetorsion.torsion as torsion_mod

    rings = ((6, P3), (7, P2), (10, P5))
    first = {(n, p): decide_p(n, 1, p).phi_c1 for n, p in rings}
    calls = []
    phi_star = torsion_mod.phi_star
    monkeypatch.setattr(torsion_mod, "phi_star", lambda poly: calls.append(poly) or phi_star(poly))
    for n, p in rings:
        for k in range(n):
            assert decide_p(n, k, p).phi_c1 == first[n, p]
    assert calls == []


@pytest.mark.parametrize("n, p", [(12, P2), (27, P3), (25, P5)])
def test_cold_ring_data_builds_no_matrices(monkeypatch, n, p):
    """The order and the recurrence check run on first rows, not matrices."""
    import gaugetorsion.torsion as torsion_mod
    from gaugetorsion.matrices import FpMatrix, IntMatrix

    products = []
    monkeypatch.setattr(FpMatrix, "__mul__", lambda a, b: products.append(1))

    def no_matrix(*args, **kwargs):
        raise AssertionError("the decision path built a matrix")

    monkeypatch.setattr(IntMatrix, "__init__", no_matrix)
    monkeypatch.setattr(FpMatrix, "__init__", no_matrix)
    monkeypatch.setattr(FpMatrix, "_canonical", no_matrix)
    assert torsion_mod._ring_data.__wrapped__(n, p) == (0, True, p_power_ceil(n, p))
    assert products == []


def test_cold_prime_ring_stays_small(uncached_engine):
    """At n = p = 1021, the largest prime below the cap, a cold ring's order
    costs O(n + p) memory: one impulse response, no O(n p) Frobenius spread."""
    import tracemalloc

    import gaugetorsion.torsion as torsion_mod

    p = Prime(1021)
    tracemalloc.start()
    try:
        facts = torsion_mod._ring_data.__wrapped__(1021, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert facts == (0, True, 1021)
    assert peak < 1 << 20, peak


def test_perturbed_recurrence_row_raises(perturbed_taps):
    """The first-row recurrence check must guard the taps the engine runs,
    also when the decision layer is the first to ask for the ring."""
    import gaugetorsion.torsion as torsion_mod
    from gaugetorsion.suspension import MechanizationError

    with pytest.raises(MechanizationError):
        torsion_mod._ring_data.__wrapped__(12, P3)


def test_gcd_check_runs_on_a_warm_key(monkeypatch):
    """The gcd criterion is checked on every call, cached certificates or not."""
    import gaugetorsion.torsion as torsion_mod
    from gaugetorsion.suspension import MechanizationError

    decide_global(6, 4)
    monkeypatch.setattr(torsion_mod, "gcd", lambda a, b: 1)
    with pytest.raises(MechanizationError):
        torsion_mod.decide_global(6, 4)


def test_warm_global_decision_constructs_nothing(monkeypatch):
    """A repeated decision validates no prime and builds no certificate or
    result."""
    import gaugetorsion.torsion as torsion_mod

    built = []

    def counted(name):
        cls = getattr(torsion_mod, name)
        return lambda *args, **kwargs: built.append(name) or cls(*args, **kwargs)

    for name in ("Prime", "Verdict", "Certificate", "GlobalResult"):
        monkeypatch.setattr(torsion_mod, name, counted(name))
    # 1003 = 17 * 59, an n no other test decides, so the first call is cold
    first = torsion_mod.decide_global(1003, 34)
    assert sorted(set(built)) == ["Certificate", "GlobalResult", "Prime", "Verdict"]
    built.clear()
    again = torsion_mod.decide_global(1003, 34)
    assert built == []
    assert again == first
    assert all(a is b for a, b in zip(again.primes, first.primes))


def test_verdicts_hold_past_the_certificate_memo_bound():
    """Every (n, k) with n <= 100 twice: 9243 certificates and 5049 results,
    more than either memo keeps, so the second pass decides evicted keys
    again."""
    import gaugetorsion.torsion as torsion_mod

    primes = {
        n: [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]
        for n in range(2, 101)
    }
    for _ in range(2):
        for n in range(2, 101):
            for k in range(n):
                result = decide_global(n, k)
                assert result.torsion_free == (gcd(n, k) == 1), (n, k)
                assert [c.verdict.p for c in result.primes] == primes[n]
                for cert in result.primes:
                    q = cert.verdict.p
                    torsion = k % q == 0
                    assert (cert.verdict.kind is TorsionKind.TORSION) == torsion, (n, k, q)
    info = torsion_mod._certificate.cache_info()
    assert info.currsize == info.maxsize == 4096
    info = torsion_mod._global_slot.cache_info()
    assert info.currsize == info.maxsize == 4096
