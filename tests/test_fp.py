import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaugetorsion import (
    FpScalar,
    Prime,
    binom_int,
    binom_mod,
    fp_inv,
    p_power_ceil,
    padic_val,
)

# -- oracles -----------------------------------------------------------------


def pascal_triangle(rows: int) -> list[list[int]]:
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = tri[-1]
        row = [1]
        for j in range(1, n):
            row.append(prev[j - 1] + prev[j])
        row.append(1)
        tri.append(row)
    return tri


def egcd_inverse(a: int, p: int) -> int:
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


# -- Prime / FpScalar --------------------------------------------------------


# 3215031751 and 3825123056546413051 are strong pseudoprimes to the bases
# 2, 3, 5, 7 and to the bases 2..23 respectively.
@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 91, -7, 3215031751, 3825123056546413051])
def test_prime_rejects_composites(bad):
    with pytest.raises(ValueError):
        Prime(bad)


@pytest.mark.parametrize("good", [2, 3, 5, 7, 11, 59, 97, 1000000000000000003, 2**61 - 1])
def test_prime_accepts_primes(good):
    assert int(Prime(good)) == good


def is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_prime_agrees_with_trial_division():
    for n in range(10**4):
        try:
            Prime(n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == is_prime_by_trial_division(n), n


def test_equal_primes_key_one_memo_entry():
    """Equal primes hash equal, so they key one entry of a memo table."""
    a, b = Prime(1000003), Prime(1000003)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2, Prime(7): 3}) == 2
    assert Prime(7) != Prime(11)


def test_prime_names_its_limit():
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        Prime(2**89 - 1)


def test_scalar_arithmetic_examples():
    p2, p3, p5 = Prime(2), Prime(3), Prime(5)
    assert (FpScalar(1, p2) + FpScalar(1, p2)).residue == 0
    assert (FpScalar(2, p3) * FpScalar(2, p3)).residue == 1
    assert (FpScalar(0, p5) - FpScalar(1, p5)).residue == 4
    x = FpScalar(3, p5)
    assert (-x).residue == 2 and not x.is_zero()
    assert int(x) == 3 and str(x) == "3 (mod 5)"


def test_scalar_modulus_mismatch():
    with pytest.raises(ValueError):
        FpScalar(1, Prime(2)) + FpScalar(1, Prime(3))


def test_scalar_refuses_an_int_operand():
    with pytest.raises(TypeError, match="^expected FpScalar, got int$"):
        FpScalar(1, Prime(3)) + 1


def test_scalar_canonical_residue():
    p = Prime(7)
    assert FpScalar(-1, p).residue == 6
    assert FpScalar(15, p).residue == 1


def test_inverse_examples():
    assert fp_inv(FpScalar(1, Prime(11))).residue == 1
    assert fp_inv(FpScalar(2, Prime(5))).residue == 3
    # frozen from the extended-Euclid oracle
    assert egcd_inverse(4, 7) == 2
    assert fp_inv(FpScalar(4, Prime(7))).residue == 2


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        fp_inv(FpScalar(0, Prime(5)))


def test_inverse_exhaustive_small_primes():
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        p = Prime(q)
        for a in range(1, q):
            s = FpScalar(a, p)
            assert (fp_inv(s) * s).residue == 1
            assert fp_inv(s).residue == egcd_inverse(a, q)


# -- binomials ---------------------------------------------------------------


def test_binom_int_examples():
    assert binom_int(4, 2) == 6
    assert binom_int(2, 3) == 0
    assert binom_int(5, -1) == 0
    # frozen from the Pascal-triangle oracle
    tri = pascal_triangle(60)
    assert tri[60][30] == 118264581564861424
    assert binom_int(60, 30) == 118264581564861424


def test_binom_int_matches_pascal_triangle():
    tri = pascal_triangle(60)
    for n in range(61):
        for j in range(n + 1):
            assert binom_int(n, j) == tri[n][j]


def test_binom_int_rejects_negative_upper():
    with pytest.raises(ValueError):
        binom_int(-1, 0)


@given(n=st.integers(min_value=1, max_value=200), j=st.integers(min_value=0, max_value=200))
def test_pascal_rule(n, j):
    assert binom_int(n, j) == binom_int(n - 1, j) + binom_int(n - 1, j - 1)


def test_binom_mod_examples():
    assert binom_mod(4, 2, Prime(2)).residue == 0
    # 10 mod 3 via base-3 digits: C(1,0) * C(2,2) = 1
    assert binom_mod(5, 2, Prime(3)).residue == 1
    for n in (0, 1, 7, 100):
        assert binom_mod(n, 0, Prime(5)).residue == 1


def test_binom_mod_agrees_with_exact():
    for q in (2, 3, 5, 7):
        p = Prime(q)
        for n in range(0, 201):
            for j in range(0, n + 1):
                assert binom_mod(n, j, p).residue == binom_int(n, j) % q


def test_binom_mod_out_of_range_is_zero():
    p = Prime(3)
    assert binom_mod(2, 3, p).residue == 0
    assert binom_mod(2, -1, p).residue == 0


# -- valuations and p-power ceilings ------------------------------------------


def test_padic_val_examples():
    assert padic_val(12, Prime(2)) == 2
    assert padic_val(9, Prime(3)) == 2
    assert padic_val(5, Prime(2)) == 0


def test_padic_val_rejects_nonpositive():
    with pytest.raises(ValueError):
        padic_val(0, Prime(2))


@given(
    e=st.integers(min_value=0, max_value=10),
    m=st.integers(min_value=1, max_value=1000),
)
def test_padic_val_reconstructs(e, m):
    p = Prime(3)
    if m % 3 == 0:
        m += 1 if (m + 1) % 3 else 2
    assert padic_val(3**e * m, p) == e


def test_p_power_ceil_examples():
    assert p_power_ceil(2, Prime(2)) == 2
    assert p_power_ceil(5, Prime(2)) == 8
    assert p_power_ceil(3, Prime(3)) == 3
    assert p_power_ceil(10, Prime(3)) == 27


def test_p_power_ceil_rejects_small():
    with pytest.raises(ValueError):
        p_power_ceil(1, Prime(2))


def test_p_power_ceil_is_tight():
    for q in (2, 3, 5):
        p = Prime(q)
        for n in range(2, 200):
            e = p_power_ceil(n, p)
            assert e >= n
            assert q ** padic_val(e, p) == e
            assert e // q < n
