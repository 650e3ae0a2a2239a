"""Prime-window sums over arrays against the scalar loops they replaced.

Every prime-window sum computes its terms as arrays and feeds them to
math.fsum.  The oracles here are the per-prime loops of the scalar code,
kept verbatim: one term per sieved prime p <= y, 0.0 outside x < p <= y,
summed by fsum over a Python list.  Results are compared with == and repr,
so a single moved bit fails.  Root counts at primes are checked against a
scan of every residue.
"""

import cmath
import functools
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpairs import arith
from qpairs.arith import fsum_complex, is_prime, jacobi, sieve_primes
from qpairs.errors import DomainError, ResourceError
from qpairs.experiments import (
    concentration_exponent,
    concentration_exponent_form,
    predicted_additive_mean,
)
from qpairs.multfunc import (
    MultiplicativeFunction,
    TwistData,
    additive_from_prime_values,
    character_extended,
    dirichlet_characters,
    distance,
    distance_additive,
    distance_form,
    distance_profile,
    distance_weighted,
    function_from_name,
    prime_values,
    twisted,
)
from qpairs.quadforms import (
    _EULER_MAX,
    BinaryQuadraticForm,
    local_root_count_fast,
    local_root_counts,
    partner_prime_sets,
)

ORACLE = settings(settings.get_profile("oracle"), max_examples=120)

# every function kind the CLI names, a character with overrides, and a
# function without a hint
FUNCTIONS = [
    "liouville", "principal", "char:4:1", "char:5:1", "char:5:2", "char:12:3", "arch:0.7",
    "arch:-2.5", "twisted:4:1:0.3", "twisted:7:2:0.0", "twisted:5:1:-1.7",
    "prime-patch:10:100:-1", "prime-patch:3:50:0.5j", "prime-patch:1:1000:(0.6+0.8j)",
]


def _no_hint() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        description="no-hint", prime_power_rule=lambda p, k: cmath.exp(1j * math.sqrt(p)) ** k
    )


def _function(name):
    if name == "extended":
        chi = dirichlet_characters(7)[2]
        return character_extended(chi, {2: 1.0, 7: -0.6 + 0.8j, 13: -1j, 997: 0.25}, 0.4)
    if name == "extended-real":
        return character_extended(dirichlet_characters(4)[1], {3: 1, 5: 0}, 0.0)
    if name == "no-hint":
        return _no_hint()
    return function_from_name(name)


ALL_FUNCTIONS = FUNCTIONS + ["extended", "extended-real", "no-hint"]
FORMS = [None] + [BinaryQuadraticForm(*c) for c in
                  ((1, 0, 1), (1, 1, 3), (2, 0, 3), (1, 0, -4), (3, 0, -12), (5, 3, 7))]
TWISTS = [(0.0, 1, 0), (0.0, 4, 1), (0.0, 5, 1), (0.9, 5, 2), (-0.35, 12, 3), (0.6, 1, 0)]


def oracle_primes(limit):
    """Trial division up to 5000; the checked sieve (as a list) past it."""
    if limit > 5000:
        return sieve_primes(limit)
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def scalar_window_sum(term, x, y):
    """The prime-window loop before the array form: one term per sieved
    prime up to max(2, int(y)), 0.0 outside the window."""
    if x > y:
        raise DomainError("need x <= y")
    return fsum_complex([term(p) if x < p <= y else 0.0 for p in oracle_primes(max(2, int(y)))])


# the largest prime at which scan_roots tries every residue
SCAN_LIMIT = 5000


def legendre_roots(form, p):
    """omega(P, p) at an odd prime too large to scan: linear when p | alpha,
    else the number of y with y**2 = D mod p (complete the square), from the
    Jacobi symbol."""
    if form.alpha % p == 0:
        return 1 if form.beta % p else (p if form.gamma % p == 0 else 0)
    return 1 + jacobi(form.discriminant % p, p)


@functools.cache
def scan_roots(form, p):
    """omega(P, p) at a prime p: the residues x mod p with P(x, 1) = 0 mod p,
    counted by trying each one up to SCAN_LIMIT; past it, where a scan is
    too slow for the million-prime windows, legendre_roots."""
    if p > SCAN_LIMIT:
        return legendre_roots(form, p)
    a, b, c = form.alpha % p, form.beta % p, form.gamma % p
    x = np.arange(p, dtype=np.int64)
    return int(np.count_nonzero((a * x * x + b * x + c) % p == 0))


def scalar_weight(form):
    if form is None:
        return lambda p: 1.0
    return lambda p: float(scan_roots(form, p))


def scalar_distance(weight, f, g, x, y):
    def term(p):
        c = weight(p)
        return c / p * (1.0 - (f.at_prime(p) * g.at_prime(p).conjugate()).real) if c else 0.0

    return math.sqrt(max(0.0, scalar_window_sum(term, x, y).real))


def twist_factor(twist, p):
    val = twist.chi(p).conjugate()
    if twist.t != 0.0:
        val *= cmath.exp(-1j * twist.t * math.log(p))
    return val


def scalar_concentration(weight, f, twist, k, n):
    if k >= n:
        return 0j

    def term(p):
        w = weight(p)
        return w / p * (f.at_prime(p) * twist_factor(twist, p) - 1.0) if w else 0.0

    return scalar_window_sum(term, k, n)


# cutoffs: non-integers, primes, prime squares +- 1, values below 2, and
# equal x and y are all drawn
CUTOFFS = st.one_of(
    st.sampled_from([-3.0, 0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0, 48.0, 49.0, 50.0, 97.0,
                     120.5, 961.0, 962.0, 997.0, 1999.0, 2003.0]),
    st.floats(-5.0, 2100.0, allow_nan=False),
    st.integers(-5, 2100),
)


@st.composite
def windows(draw):
    x, y = draw(CUTOFFS), draw(CUTOFFS)
    if draw(st.booleans()):
        x = y
    return min(x, y), max(x, y)


@ORACLE
@given(st.sampled_from(ALL_FUNCTIONS), st.sampled_from(ALL_FUNCTIONS), st.sampled_from(FORMS),
       windows())
def test_distances_match_scalar_loop(fname, gname, form, window):
    f, g = _function(fname), _function(gname)
    x, y = window
    got = distance(f, g, x, y) if form is None else distance_form(form, f, g, x, y)
    want = scalar_distance(scalar_weight(form), f, g, x, y)
    assert repr(got) == repr(want)


@ORACLE
@given(st.sampled_from(ALL_FUNCTIONS), st.sampled_from(FORMS),
       st.lists(CUTOFFS.filter(lambda c: c >= 1), min_size=1, max_size=5))
def test_distance_profile_matches_scalar_loop(fname, form, cutoffs):
    f, g = _function(fname), _function("char:5:1")
    profile = distance_profile(f, g, cutoffs, form)
    want = [(float(y), scalar_distance(scalar_weight(form), f, g, 1, float(y))) for y in cutoffs]
    assert repr(profile) == repr(want)


@ORACLE
@given(st.sampled_from(ALL_FUNCTIONS), st.sampled_from(FORMS), st.sampled_from(TWISTS),
       windows())
def test_concentration_exponents_match_scalar_loop(fname, form, twist, window):
    f = _function(fname)
    t, q, index = twist
    tw = TwistData(t, dirichlet_characters(q)[index])
    k, n = (int(c) for c in window)
    if form is None:
        got = concentration_exponent(f, tw, k, n)
    else:
        got = concentration_exponent_form(form, f, tw, k, n)
    assert repr(got) == repr(scalar_concentration(scalar_weight(form), f, tw, k, n))


@ORACLE
@given(st.dictionaries(st.integers(1, 2200), st.complex_numbers(max_magnitude=1.0), max_size=12),
       windows())
def test_additive_sums_match_scalar_loop(values, window):
    h = additive_from_prime_values(values)
    k, n = window
    got = distance_additive(h, k, n)
    assert repr(got) == repr(math.sqrt(scalar_window_sum(lambda p: abs(h.at_prime(p)) ** 2 / p, k, n).real))
    k, n = int(k), int(n)
    want = scalar_window_sum(lambda p: 2.0 / p * h.at_prime(p), k, n) if k < n else 0j
    assert repr(predicted_additive_mean(h, k, n)) == repr(want)


@ORACLE
@given(st.dictionaries(st.integers(-3, 2200), st.floats(0.0, 2.0), max_size=12), windows())
def test_weighted_distance_matches_scalar_loop(weights, window):
    f, g = _function("twisted:5:1:-1.7"), _function("liouville")
    x, y = window
    for c in (weights, lambda p: weights.get(p, 0.5)):
        get = (lambda p: float(c.get(p, 0.0))) if isinstance(c, dict) else (lambda p: float(c(p)))
        assert repr(distance_weighted(c, f, g, x, y)) == repr(scalar_distance(get, f, g, x, y))


@pytest.mark.parametrize("name", ALL_FUNCTIONS)
def test_prime_values_equal_at_prime(name):
    """Equal with ==, which does not see the sign of a zero part.  Below
    10**6, np.log misses math.log at a few primes."""
    f = _function(name)
    primes = arith._prime_array(10**6)
    got = prime_values(f, primes)
    assert got.dtype == np.complex128
    assert got.tolist() == [f.at_prime(p) for p in primes.tolist()]


@pytest.mark.parametrize("fname, gname", [("arch:0.7", "principal"), ("extended", "char:5:1"),
                                          ("twisted:7:2:1.3", "arch:-0.2")])
def test_distance_to_a_million_matches_scalar_loop(fname, gname):
    f, g = _function(fname), _function(gname)
    want = scalar_distance(scalar_weight(None), f, g, 1, 10**6)
    assert repr(distance(f, g, 1, 10**6)) == repr(want)
    form = BinaryQuadraticForm(1, 1, 3)
    assert repr(distance_form(form, f, g, 10, 10**6)) == repr(
        scalar_distance(scalar_weight(form), f, g, 10, 10**6)
    )


@ORACLE
@given(st.sampled_from(ALL_FUNCTIONS), st.sampled_from(FORMS), st.sampled_from(TWISTS),
       st.integers(-5, 2100), st.integers(0, 2100))
def test_distance_is_root_of_minus_concentration_exponent(fname, form, twist, k, width):
    """D(f, chi * n^{it})^2 = -Re G term by term, so with ==, and repr
    for the sign of a zero: one term and one exact sum serve both."""
    f = _function(fname)
    t, q, index = twist
    chi = dirichlet_characters(q)[index]
    g, n = twisted(chi, t), k + width
    if form is None:
        d, exponent = distance(f, g, k, n), concentration_exponent(f, TwistData(t, chi), k, n)
    else:
        d = distance_form(form, f, g, k, n)
        exponent = concentration_exponent_form(form, f, TwistData(t, chi), k, n)
    assert repr(d) == repr(math.sqrt(max(0.0, -exponent.real)))


# Array terms per list that fsum_complex hands to math.fsum
TERM_CHUNK = arith._TERM_CHUNK


@st.composite
def term_streams(draw):
    """(stream, real parts, imaginary parts): one run of terms cut into
    pieces, each given as numbers, a float64 array (its imaginary parts
    then 0) or a complex128 array.  Runs of 2**16 +- 1 terms and empty
    pieces are drawn."""
    size = draw(st.sampled_from([0, 1, 2, 7, 40, TERM_CHUNK - 1, TERM_CHUNK, TERM_CHUNK + 1,
                                 2 * TERM_CHUNK + 1]))
    pool = draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    re, im = rng.choice(pool, size), rng.choice(pool, size)
    cuts = draw(st.lists(st.integers(0, size), max_size=4))
    cuts += draw(st.lists(st.sampled_from([TERM_CHUNK - 1, TERM_CHUNK, TERM_CHUNK + 1]), max_size=2))
    bounds = sorted({0, size, *(c for c in cuts if c <= size)})
    stream = []
    for lo, hi in zip(bounds, bounds[1:] + [size]):  # the last piece is empty
        kind = draw(st.sampled_from(["numbers", "float", "complex"] if hi - lo <= 50 else ["float", "complex"]))
        if kind == "float":
            im[lo:hi] = 0.0
            stream.append(re[lo:hi].copy())
        elif kind == "complex":
            stream.append(re[lo:hi] + 1j * im[lo:hi])
        else:
            stream += [complex(x, y) if y else x for x, y in zip(re[lo:hi].tolist(), im[lo:hi].tolist())]
    return stream, re.tolist(), im.tolist()


@settings(settings.get_profile("oracle"), max_examples=80)
@given(term_streams())
def test_fsum_complex_equals_fsum_of_parts(data):
    stream, re, im = data
    got = fsum_complex(iter(stream))
    assert repr((got.real, got.imag)) == repr((math.fsum(re), math.fsum(im)))


@pytest.mark.parametrize("size", [TERM_CHUNK - 1, TERM_CHUNK, TERM_CHUNK + 1, 3 * TERM_CHUNK + 5])
@pytest.mark.parametrize("kind", ["float", "complex"])
def test_fsum_complex_streams_long_arrays(size, kind):
    """Whole arrays longer than a chunk, beside numbers and an empty array."""
    rng = np.random.default_rng(size)
    re = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    im = np.zeros(size) if kind == "float" else rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    z = re if kind == "float" else re + 1j * im
    got = fsum_complex([z, 0.5 - 2j, np.empty(0, z.dtype), -z[: size // 3]])
    want_re = math.fsum([*re.tolist(), 0.5, *(-re[: size // 3]).tolist()])
    want_im = math.fsum([*im.tolist(), -2.0, *(-im[: size // 3]).tolist()])
    assert repr((got.real, got.imag)) == repr((want_re, want_im))


@pytest.mark.parametrize("y", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_cutoffs_are_refused(y):
    f, g = _function("liouville"), _function("principal")
    with pytest.raises(DomainError):
        distance(f, g, 1.0, y)
    with pytest.raises(DomainError):
        distance(f, g, y, 100.0)
    with pytest.raises(DomainError):
        distance_profile(f, g, [1000.0, y])
    with pytest.raises(ResourceError):  # finite but past the cap
        distance(f, g, 1.0, 1e300)


# --- root counts and partner sets ----------------------------------------------

ROOT_FORMS = [BinaryQuadraticForm(*c) for c in (
    (1, 0, 1), (1, 0, 2), (1, 1, 3), (2, 0, 3), (1, 0, -2), (3, 5, 7), (6, 0, 35),
    (1, 0, -4), (2, 0, -8), (3, 0, 0), (1, 2, 1), (0, 2, 0), (4, 4, 1),
    (-7, 3, 5), (1, 0, 2**89 - 1), (2**40, 0, 3**30),
)]


@pytest.mark.parametrize("form", ROOT_FORMS, ids=str)
def test_local_root_counts_match_scalar(form):
    primes = arith._prime_array(3000)
    want = [scan_roots(form, p) for p in primes.tolist()]
    got = local_root_counts(form, primes)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert [local_root_count_fast(form, p) for p in primes[:40].tolist()] == want[:40]


# the first prime past _EULER_MAX, where local_root_counts leaves int64
BIG_PRIME = next(p for p in range(_EULER_MAX + 1, _EULER_MAX + 1000) if is_prime(p))


COEFFICIENTS = st.one_of(
    st.integers(-30, 30),  # p | alpha, p | beta and p | D at small primes
    st.integers(-2**70, 2**70),
    st.sampled_from([2**31 - 1, 2**31, -2**31 - 5, 2**63 - 1, 2**63, -2**63 - 1, 2**64 + 13]),
    st.sampled_from([30030, 2**32 * 3**20, BIG_PRIME, -2 * BIG_PRIME]),  # many p | alpha
)
ROOT_COUNT_FORMS = st.one_of(
    st.tuples(COEFFICIENTS, COEFFICIENTS, COEFFICIENTS),
    st.sampled_from([  # D = 0, reducible, alpha = 0 or beta = 0, p | alpha and p | gamma
        (1, 2, 1), (4, 4, 1), (9, -6, 1), (3, 0, -12), (0, 2, 0), (6, 0, 0), (0, 0, 5),
        (0, 3, -7), (15, 0, 10), (1, 0, -4), (2, 5, 2), (1, 0, 1), (BIG_PRIME, 0, 3),
        (BIG_PRIME, 0, -2 * BIG_PRIME),
    ]),
).filter(any).map(lambda c: BinaryQuadraticForm(*c))


@settings(settings.get_profile("oracle"), max_examples=200)
@given(ROOT_COUNT_FORMS)
def test_local_root_counts_match_scan_for_any_form(form):
    """Every prime below 3000, and one prime past _EULER_MAX, for forms of
    every shape and coefficients past int64."""
    primes = np.append(arith._prime_array(3000), BIG_PRIME)
    want = [scan_roots(form, p) for p in primes.tolist()]
    assert local_root_counts(form, primes).tolist() == want
    assert local_root_count_fast(form, BIG_PRIME) == want[-1]


def scalar_partner_sets(form1, form2, bound, excluded=()):
    skip = set(excluded)
    first, second = [], []
    for p in oracle_primes(bound):
        if p in skip:
            continue
        w1, w2 = scan_roots(form1, p), scan_roots(form2, p)
        if w1 == 2 and w2 == 0:
            first.append(p)
        elif w1 == 0 and w2 == 2:
            second.append(p)
    return first, second


PARTNER_FORMS = [f for f in ROOT_FORMS if f.irreducible]


@pytest.mark.parametrize("form1, form2", list(combinations(PARTNER_FORMS, 2))[::3])
@pytest.mark.parametrize("bound", [1, 2, 3, 97, 1000, 2003])
def test_partner_prime_sets_match_scalar_loop(form1, form2, bound):
    assert partner_prime_sets(form1, form2, bound) == scalar_partner_sets(form1, form2, bound)
    excluded = {2, 3, 5, 13, 101, 997}
    assert partner_prime_sets(form1, form2, bound, excluded) == scalar_partner_sets(
        form1, form2, bound, excluded
    )


# --- the prime cache --------------------------------------------------------------


@pytest.fixture
def fresh_primes(monkeypatch):
    monkeypatch.setattr(arith, "_sieve_cache", (0, None))
    return monkeypatch


def _limits():
    """2, 3, p**2 and p**2 +- 1 for small primes, and their even and odd
    neighbours."""
    out = {2, 3, 4, 5, 8, 9, 10}
    for p in oracle_primes(60):
        out |= {p * p - 1, p * p, p * p + 1, p * p + 2}
    return sorted(out)


@pytest.mark.parametrize("segment", [1, 2, 7, 64, arith._SIEVE_SEGMENT])
def test_sieve_matches_trial_division(fresh_primes, segment):
    """Fresh builds at each limit, with segments shorter than, equal to and
    longer than the sieving primes."""
    fresh_primes.setattr(arith, "_SIEVE_SEGMENT", segment)
    oracle = oracle_primes(max(_limits()))
    for limit in _limits():
        fresh_primes.setattr(arith, "_sieve_cache", (0, None))
        want = [p for p in oracle if p <= limit]
        assert sieve_primes(limit) == want, limit
        assert arith._prime_array(limit).tolist() == want


def test_grown_cache_equals_fresh_build(fresh_primes):
    fresh_primes.setattr(arith, "_SIEVE_SEGMENT", 5)
    grown = {}
    for limit in _limits():  # ascending: the cache grows at every step
        grown[limit] = sieve_primes(limit)
    for limit in reversed(_limits()):  # descending: served from the largest table
        assert sieve_primes(limit) == grown[limit]
    for limit in _limits():
        fresh_primes.setattr(arith, "_sieve_cache", (0, None))
        assert sieve_primes(limit) == grown[limit]


def test_handed_out_prime_arrays_are_read_only(fresh_primes):
    whole = arith._prime_array(1000)  # the cached table itself
    prefix = arith._prime_array(100)  # a view of it
    assert whole.dtype == prefix.dtype == np.int64
    for view in (whole, prefix):
        with pytest.raises(ValueError):
            view[0] = 4
    assert sieve_primes(1000)[:3] == [2, 3, 5]
    copy = sieve_primes(100)
    copy[0] = 4  # a list of its own
    assert sieve_primes(100)[0] == 2


def test_factorize_across_trial_steps_and_int64():
    """Products of primes around the ends of the trial-division steps (the
    32nd and 160th primes), above 10**6, and around 2**63."""
    primes = sieve_primes(2000)
    picks = [primes[i] for i in (0, 30, 31, 32, 33, 158, 159, 160, 161, 302)]
    cases = [p * q for p in picks for q in picks] + [p**5 for p in picks]
    cases += [999983 * 1000003, 2**63 - 25, 2**63 + 9, 3 * (2**63 + 9), 2**64 * 131**2,
              999983**2 * 2**40, 1000003 * 131 * 2**61]
    for n in cases:
        factors = arith.factorize(n).factors
        assert all(arith.is_prime(p) for p, _ in factors)
        assert math.prod(p**e for p, e in factors) == n
