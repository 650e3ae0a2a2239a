import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpairs.arith import (
    _strip_prime,
    crt,
    factorize,
    find_prime_in_class,
    is_square,
    jacobi,
    pell_fundamental,
    primes_in_class,
    sieve_primes,
    squarefree_part,
    sqrt_mod,
)
from qpairs.errors import DomainError


# --- independent oracles -------------------------------------------------

def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def trial_division_factor(n):
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def squares_mod(p):
    return {(x * x) % p for x in range(1, p)}


# --- sieve ----------------------------------------------------------------

def test_sieve_small():
    assert sieve_primes(10) == [2, 3, 5, 7]
    assert sieve_primes(2) == [2]


def test_sieve_count_100_against_trial_division():
    assert sieve_primes(100) == trial_division_primes(100)
    assert len(sieve_primes(100)) == 25


def test_sieve_bad_limit():
    with pytest.raises(DomainError):
        sieve_primes(1)


# --- factorize --------------------------------------------------------------

def test_factorize_examples():
    assert factorize(46656).factors == ((2, 6), (3, 6))
    f = factorize(-12)
    assert f.factors == ((2, 2), (3, 1)) and f.value == -12
    assert factorize(10403).factors == tuple(trial_division_factor(10403))
    assert factorize(10403).factors == ((101, 1), (103, 1))


def test_factorize_zero():
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_reconstructs_all_small():
    for n in range(2, 10**4 + 1):
        f = factorize(n)
        assert f.reconstruct() == n
        assert all(f.factors[i][0] < f.factors[i + 1][0] for i in range(len(f.factors) - 1))


@given(st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0))
def test_factorize_matches_trial_division(n):
    assert factorize(n).factors == tuple(trial_division_factor(n))


# --- jacobi -----------------------------------------------------------------

def test_jacobi_examples():
    assert jacobi(-1, 5) == 1
    # (2/15) = (2/3)(2/5); exhaustive square scans mod 3 and mod 5
    assert (2 % 3 in squares_mod(3)) is False
    assert (2 % 5 in squares_mod(5)) is False
    assert jacobi(2, 15) == 1
    assert squares_mod(7) == {1, 2, 4}
    assert jacobi(3, 7) == -1


def test_jacobi_even_modulus():
    with pytest.raises(DomainError):
        jacobi(3, 8)


def test_jacobi_against_exhaustive_legendre():
    for p in sieve_primes(200):
        if p == 2:
            continue
        sq = squares_mod(p)
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in sq else -1)
            assert jacobi(a, p) == expected


# --- squarefree decomposition ------------------------------------------------

def test_squarefree_examples():
    assert (squarefree_part(-12).d, squarefree_part(-12).r) == (-3, 2)
    assert (squarefree_part(4).d, squarefree_part(4).r) == (1, 2)
    assert (squarefree_part(10404).d, squarefree_part(10404).r) == (1, 102)
    assert 102 * 102 == 10404


def test_squarefree_zero():
    with pytest.raises(DomainError):
        squarefree_part(0)


def test_squarefree_random():
    rng = random.Random(20240817)
    for _ in range(1000):
        n = rng.randint(-(10**6), 10**6)
        if n == 0:
            continue
        sf = squarefree_part(n)
        assert sf.d * sf.r**2 == n
        assert all(e == 1 for _, e in trial_division_factor(sf.d))


# --- crt ---------------------------------------------------------------------

def test_crt_examples():
    assert crt([(2, 3), (3, 5)]) == (8, 15)
    assert crt([(1, 4), (0, 9)]) == (9, 36)
    # derived by scanning 1..120
    expected = next(x for x in range(1, 121) if x % 8 == 1 and x % 3 == 2 and x % 5 == 3)
    assert crt([(1, 8), (2, 3), (3, 5)]) == (expected, 120)
    assert expected == 113


def test_crt_overlap():
    assert crt([(1, 4), (3, 6)]) == (9, 12)
    with pytest.raises(DomainError):
        crt([(1, 4), (2, 6)])


# --- prime in class ------------------------------------------------------------

def test_find_prime_in_class():
    assert find_prime_in_class(3, 8, 100) == 3
    assert find_prime_in_class(5, 8, 100) == 5
    scan = next(p for p in trial_division_primes(100) if p % 12 == 1)
    assert find_prime_in_class(1, 12, 100) == scan == 13
    assert find_prime_in_class(1, 3, 5) is None


def test_find_prime_in_class_bad_gcd():
    with pytest.raises(DomainError):
        find_prime_in_class(2, 4, 100)


@settings(max_examples=60)
@given(st.integers(-10**4, 10**4), st.integers(1, 10**4), st.integers(1, 3 * 10**4))
def test_primes_in_class_matches_list_filter(a, q, limit):
    """The chunked walk against a filter over the whole prime list, across
    chunk boundaries and with moduli above the limit."""
    if gcd(a, q) != 1:
        return
    expected = [p for p in sieve_primes(max(2, limit)) if p <= limit and p % q == a % q]
    assert list(primes_in_class(a, q, limit)) == expected


def test_primes_in_class_modulus_past_int64():
    q = 8 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53 * 59
    assert q > 2**63
    assert list(primes_in_class(97, q, 1000)) == [97]
    assert list(primes_in_class(97 + q, q, 1000)) == [97]
    assert list(primes_in_class(1009, q, 1000)) == []


def test_primes_in_class_limits():
    assert list(primes_in_class(1, 3, 1)) == []  # an exhausted search, not an error
    for bad in (0, -5):
        with pytest.raises(DomainError, match="prime limit"):
            find_prime_in_class(1, 3, bad)
        with pytest.raises(DomainError, match="modulus"):
            find_prime_in_class(1, bad, 100)


# --- pell ----------------------------------------------------------------------

def brute_pell(d, ymax=10):
    for y in range(1, ymax + 1):
        x2 = 1 + d * y * y
        r = int(x2**0.5)
        for c in (r - 1, r, r + 1):
            if c > 0 and c * c == x2:
                return c, y
    return None


def test_pell_small_brute_force():
    assert pell_fundamental(2) == brute_pell(2) == (3, 2)
    assert pell_fundamental(3) == brute_pell(3) == (2, 1)


def test_pell_61():
    x, y = pell_fundamental(61)
    assert (x, y) == (1766319049, 226153980)
    assert x * x - 61 * y * y == 1


def test_pell_square_rejected():
    with pytest.raises(DomainError):
        pell_fundamental(49)


def test_pell_identity_and_minimality():
    for d in range(2, 201):
        if is_square(d):
            continue
        x, y = pell_fundamental(d)
        assert x * x - d * y * y == 1
        if d <= 50:
            for y2 in range(1, y):
                assert not is_square(1 + d * y2 * y2)


# --- sqrt_mod -------------------------------------------------------------------

def test_sqrt_mod():
    for p in sieve_primes(150):
        if p == 2:
            continue
        for a in range(p):
            r = sqrt_mod(a, p)
            if a % p == 0:
                assert r == 0
            elif jacobi(a, p) == 1:
                assert r is not None and (r * r) % p == a % p
            else:
                assert r is None


# --- stripping one prime from an array ------------------------------------------

def _strip_scalar(v, p):
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    return v, e


@settings(settings.get_profile("oracle"), max_examples=80)
@given(
    p=st.sampled_from([2, 3, 5, 7, 97, 65537, 2**31 - 1]),
    parts=st.lists(
        st.tuples(st.integers(-2**70, 2**70).filter(bool), st.integers(0, 62)), max_size=40
    ),
)
def test_strip_prime_matches_scalar_loop(p, parts):
    """_strip_prime against a scalar loop over the same values: int64 and
    object arrays, values past 2**63 (object only), exponents up to 62."""
    values = [m * p**e for m, e in parts]
    batches = [np.array(values, dtype=object)]
    if all(-2**63 <= v < 2**63 for v in values):
        batches.append(np.array(values, dtype=np.int64))
    expect = [_strip_scalar(v, p) for v in values]
    for batch in batches:
        hits, exps = _strip_prime(batch, p)
        assert batch.tolist() == [v for v, _ in expect], batch.dtype
        assert hits.tolist() == [i for i, (_, e) in enumerate(expect) if e]
        assert exps.dtype == np.int64 and exps.tolist() == [e for _, e in expect if e]


def test_strip_prime_reaches_exponent_62():
    values = np.array([2**62, -(2**62), 3 * 2**60, 1, 7], dtype=np.int64)
    hits, exps = _strip_prime(values, 2)
    assert values.tolist() == [1, -1, 3, 1, 7]
    assert hits.tolist() == [0, 1, 2] and exps.tolist() == [62, 62, 60]
    big = np.array([5**62 * 3, 5, 2**100], dtype=object)
    hits, exps = _strip_prime(big, 5)
    assert big.tolist() == [3, 1, 2**100] and hits.tolist() == [0, 1] and exps.tolist() == [62, 1]
