import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpairs.arith import sieve_primes
from qpairs.errors import DomainError
from qpairs.quadforms import (
    BinaryQuadraticForm,
    construct_congruence_pair,
    exceptional_primes,
    form_has_root,
    hensel_lift,
    local_root_count,
    local_root_count_fast,
    parse_form,
    partner_prime_sets,
)

P11 = BinaryQuadraticForm(1, 0, 1)
P12 = BinaryQuadraticForm(1, 0, 2)


def scan_roots(form, r):
    return sum(1 for x in range(r) if form.value(x, 1) % r == 0)


def test_eval_form():
    assert P11.value(3, 4) == 25
    assert BinaryQuadraticForm(1, 0, -2).value(2, 1) == 2
    assert BinaryQuadraticForm(1, 1, 1).value(1, 1) == 3


def test_form_derived_data():
    assert P11.discriminant == -4
    assert P11.norm_orientation == (1, 2)
    assert P11.irreducible
    assert not BinaryQuadraticForm(0, 2, 0).irreducible  # 2mn
    assert not BinaryQuadraticForm(1, 0, -4).irreducible  # square discriminant
    with pytest.raises(DomainError):
        BinaryQuadraticForm(0, 0, 0)


@pytest.mark.parametrize("coeffs", [
    (a, b, c) for a in (0, 3) for b in (0, -2) for c in (0, 5) if (a, b, c) != (0, 0, 0)
])
def test_grid_values_skip_zero_terms(coeffs):
    """All 7 patterns of nonzero coefficients give the full formula's values,
    shape and dtype, as a new array: int64 broadcast shapes, float64
    midpoints, mixed dtypes, and object arrays past 2**62."""
    form = BinaryQuadraticForm(*coeffs)
    a, b, c = coeffs
    rows = np.arange(-3, 4, dtype=np.int64)[:, None]
    cols = np.arange(1, 6, dtype=np.int64)[None, :]
    big = 2**40 + 7
    cases = [
        (rows, cols),
        (cols, rows),
        (rows, rows.T[:, :1]),
        (rows[:5, 0], cols[0]),
        (rows, np.int64(4)),
        ((rows - 0.5) / 5, (cols - 0.5) / 5),
        (rows * cols, (cols - 0.5) / 5),
        ((rows * cols).astype(np.int32), cols),
        (np.array([big * x for x in range(-2, 3)], dtype=object)[:, None],
         np.array([big + x for x in range(3)], dtype=object)[None, :]),
        (3, -4),
    ]
    for u, w in cases:
        want = a * u * u + b * u * w + c * w * w
        got = form.grid_values(u, w)
        assert np.shape(got) == np.shape(want)
        assert np.all(got == want)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype
            assert not np.shares_memory(got, u) and not np.shares_memory(got, w)
            assert got.flags.writeable
        else:
            assert type(got) is type(want)
    obj = cases[-2]
    assert max(abs(int(v)) for v in form.grid_values(*obj).ravel()) > 2**62


def test_parse_form():
    assert parse_form("[1,0,2]") == P12
    with pytest.raises(DomainError):
        parse_form("[1,0]")


def test_local_root_count_examples():
    assert local_root_count(P11, 5) == scan_roots(P11, 5) == 2
    assert local_root_count(P11, 3) == scan_roots(P11, 3) == 0
    assert local_root_count(P11, 25) == scan_roots(P11, 25) == 2
    assert local_root_count(P11, 1) == 1


def test_local_root_count_fast_examples():
    assert local_root_count_fast(P11, 13) == scan_roots(P11, 13) == 2
    assert local_root_count_fast(P11, 7) == scan_roots(P11, 7) == 0
    assert local_root_count_fast(P12, 2) == scan_roots(P12, 2) == 1
    # reducible forms: 2mn, (m - 2n)(m + 2n), and 3m^2 - 12n^2 at p | alpha
    assert local_root_count_fast(BinaryQuadraticForm(0, 2, 0), 5) == 1
    assert local_root_count_fast(BinaryQuadraticForm(1, 0, -4), 7) == 2
    assert local_root_count_fast(BinaryQuadraticForm(3, 0, -12), 3) == 3
    for composite in (1, 4, 9, 21, 0, -5):
        with pytest.raises(DomainError):
            local_root_count_fast(P11, composite)


def _random_irreducible(rng):
    while True:
        alpha = rng.randint(-20, 20)
        beta = rng.randint(-20, 20)
        gamma = rng.randint(-20, 20)
        if alpha == 0:
            continue
        form = BinaryQuadraticForm(alpha, beta, gamma)
        if form.irreducible:
            return form


def test_fast_equals_exhaustive_200_forms():
    rng = random.Random(99)
    primes = sieve_primes(100)
    for _ in range(200):
        form = _random_irreducible(rng)
        for p in primes:
            assert local_root_count_fast(form, p) == scan_roots(form, p), (form, p)


def test_multiplicativity():
    rng = random.Random(123)
    for _ in range(50):
        form = _random_irreducible(rng)
        pairs = 0
        while pairs < 20:
            r = rng.randint(2, 500)
            s = rng.randint(2, 500)
            if math.gcd(r, s) != 1:
                continue
            pairs += 1
            assert local_root_count(form, r * s) == local_root_count(
                form, r
            ) * local_root_count(form, s)


def test_prime_square_bound():
    rng = random.Random(5)
    for _ in range(30):
        form = _random_irreducible(rng)
        for p in sieve_primes(100):
            if (2 * form.alpha * form.discriminant) % p == 0:
                continue  # finitely many exceptional primes
            assert local_root_count(form, p * p) <= 2


def test_beyond_scan_cap_uses_lifting():
    # r = 5^9 > 10^6: multiplicative path, checked against the lift structure
    assert local_root_count(P11, 5**9) == 2
    assert local_root_count(P11, 3 * 5**9) == 0
    # p | every coefficient: all p residues, counted without listing them
    p = 3037000507
    assert local_root_count(BinaryQuadraticForm(p, 0, -2 * p), p) == p
    assert local_root_count(BinaryQuadraticForm(3 * p, 0, 0), 9 * p**2) == 3 * p


FORMS = st.one_of(
    st.tuples(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
    .filter(any)
    .map(lambda c: BinaryQuadraticForm(*c)),
    # singular roots, which branch when lifted
    st.sampled_from([(1, 0, 0), (4, 4, 1), (9, 0, 0), (0, 2, 0), (2, 0, 18), (25, 10, 1)])
    .map(lambda c: BinaryQuadraticForm(*c)),
)
ROOT_ORACLE = settings(settings.get_profile("oracle"), max_examples=30)


def _numpy_roots(form, r):
    """Brute-force count over every residue (int64 is exact for |coeff| <= 30, r < 3e6)."""
    x = np.arange(r, dtype=np.int64)
    return int(np.count_nonzero((form.alpha * x * x + form.beta * x + form.gamma) % r == 0))


# local_root_count counts by lifting at every modulus; the three tests below
# check it against a scan over every residue, at small, middle and large r.
@ROOT_ORACLE
@given(FORMS, st.integers(1, 4096))
def test_local_root_count_python_scan(form, r):
    assert local_root_count(form, r) == scan_roots(form, r)


@ROOT_ORACLE
@given(FORMS, st.integers(4097, 20000))
def test_local_root_count_numpy_scan(form, r):
    assert local_root_count(form, r) == scan_roots(form, r)


@ROOT_ORACLE
@given(FORMS, st.one_of(
    st.integers(10**6 + 1, 3 * 10**6),
    st.sampled_from([2**21, 3**13, 5**9, 2 * 7**7, 2**8 * 3**5 * 5**2, 11**6]),
))
def test_local_root_count_lifting(form, r):
    assert r > 10**6
    assert local_root_count(form, r) == _numpy_roots(form, r)


def test_hensel_examples():
    assert hensel_lift(P11, 5, 2, 2) == 7
    assert (7 * 7 + 1) % 25 == 0
    assert hensel_lift(P11, 5, 3, 2) == 18
    assert (18 * 18 + 1) % 25 == 0 and 18 * 18 + 1 == 13 * 25
    assert hensel_lift(P11, 13, 5, 1) == 5
    with pytest.raises(DomainError):
        hensel_lift(P11, 5, 1, 2)  # not a root
    singular = BinaryQuadraticForm(1, 0, -25)  # root 5 mod 5 has zero derivative
    with pytest.raises(DomainError):
        hensel_lift(singular, 5, 0, 2)


@pytest.mark.parametrize("form, p, root", [
    (BinaryQuadraticForm(1, 0, -4), 6, 2),  # pow(., -1, 6) has no inverse to find
    (BinaryQuadraticForm(1, 0, -4), 0, 0),  # a modulus of 0
    (BinaryQuadraticForm(1, 0, -1), 15, 4),  # 4 is a nonsingular root mod 15
    (BinaryQuadraticForm(1, 0, -1), 1, 0),
    (BinaryQuadraticForm(1, 0, -1), -5, 1),
])
def test_hensel_refuses_non_prime_modulus(form, p, root):
    with pytest.raises(DomainError, match="prime modulus"):
        hensel_lift(form, p, root, 2)


def test_form_has_root():
    assert form_has_root(P11, 5)
    assert not form_has_root(P11, 3)
    assert form_has_root(P12, 3)
    # prime-set shapes: p = 1 mod 4 for m^2+n^2, p = 1,3 mod 8 for m^2+2n^2
    for p in sieve_primes(100):
        if p == 2:
            continue
        assert form_has_root(P11, p) == (p % 4 == 1)
        assert form_has_root(P12, p) == (p % 8 in (1, 3))


def test_partner_prime_sets():
    s1, s2 = partner_prime_sets(P11, P12, 30)
    assert set(s1) >= {5, 13, 29}
    assert set(s2) >= {3, 11, 19}
    assert s1 == [5, 13, 29] and s2 == [3, 11, 19]
    s1x, _ = partner_prime_sets(P11, P12, 30, excluded={5})
    assert 5 not in s1x


def test_congruence_pair_construction():
    pair = construct_congruence_pair(P11, P12, 2, 5, {5: 1, 3: 1})
    v1 = P11.value(pair.a, pair.b)
    v2 = P12.value(pair.a, pair.b)
    assert v1 % 2 == 1 and v2 % 2 == 1  # = 1 mod r! with r = 2
    assert math.gcd(v1, pair.q) == 5 == pair.q1
    assert math.gcd(v2, pair.q) == 3 == pair.q2
    assert 1 <= pair.a <= pair.q and 1 <= pair.b <= pair.q
    # the local datum behind the p = 5 branch
    assert P11.value(2, 1) == 5 and P12.value(2, 1) == 6


def test_congruence_pair_larger_exponents():
    # r = 3 pulls 3 into the excluded set, leaving 5 as the only partner prime
    pair = construct_congruence_pair(P11, P12, 3, 7, {5: 2})
    assert set(pair.excluded) >= {2, 3}
    assert pair.primes1 == (5,) and pair.primes2 == ()
    v1 = P11.value(pair.a, pair.b)
    v2 = P12.value(pair.a, pair.b)
    assert v1 % 6 == 1 and v2 % 6 == 1
    assert math.gcd(v1, pair.q) == pair.q1 == 25
    assert math.gcd(v2, pair.q) == pair.q2 == 1


def test_congruence_pair_preconditions():
    with pytest.raises(DomainError):
        construct_congruence_pair(P11, P12, 2, 5, {5: 1})  # missing prime 3
    with pytest.raises(DomainError):
        construct_congruence_pair(P11, P12, 2, 5, {5: 99, 3: 1})  # exponent > 3K/2
    with pytest.raises(DomainError):
        construct_congruence_pair(
            BinaryQuadraticForm(2, 0, 1), P12, 2, 5, {}
        )  # not monic


def test_exceptional_primes_contains_two():
    f = exceptional_primes(P11, P12, 2)
    assert 2 in f
