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
import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpairs import arith, multfunc
from qpairs.arith import fsum_complex, is_prime, jacobi, sieve_primes
from qpairs.caps import caps, override as caps_override
from qpairs.errors import DomainError, ResourceError
from qpairs.experiments import (
    concentration_exponent,
    concentration_exponent_form,
    predicted_additive_mean,
)
from qpairs.multfunc import (
    MultiplicativeFunction,
    PrimeTable,
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
    local_root_count,
    local_root_count_fast,
    local_root_counts,
    partner_prime_sets,
)

ORACLE = settings(settings.get_profile("oracle"), max_examples=120)

ROOT = Path(__file__).resolve().parents[1]

# the wall time and peak RSS of a command run in a child, from tools/peak_rss.py
_spec = importlib.util.spec_from_file_location("peak_rss", ROOT / "tools" / "peak_rss.py")
peak_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_rss)

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
@given(st.dictionaries(st.sampled_from(sieve_primes(2200)), st.complex_numbers(max_magnitude=1.0),
                       max_size=12),
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
@given(st.dictionaries(st.sampled_from(sieve_primes(2200)), st.floats(0.0, 2.0), max_size=12), windows())
def test_weighted_distance_matches_scalar_loop(weights, window):
    f, g = _function("twisted:5:1:-1.7"), _function("liouville")
    x, y = window
    for c in (weights, lambda p: weights.get(p, 0.5)):
        get = (lambda p: float(c.get(p, 0.0))) if isinstance(c, dict) else (lambda p: float(c(p)))
        assert repr(distance_weighted(c, f, g, x, y)) == repr(scalar_distance(get, f, g, x, y))


def sieved_table_sum(table, term, x, y):
    """A sum over the keys of a PrimeTable as it was taken before it read
    them: every prime of the window streamed from the sieve, with the terms
    term(p, value) of the keys up to sieve_limit written into zeros by put."""
    keys = [p for p in table.keys.tolist() if p <= caps().sieve_limit]
    terms = PrimeTable(np.array(keys, dtype=np.int64),
                       np.array([term(p, table.get(p, 0j)) for p in keys], dtype=np.complex128))
    return multfunc.prime_window_sum(lambda primes: terms.put(np.zeros(len(primes), dtype=np.complex128), primes),
                                     x, y)


def sieved_weighted_distance(c, f, g, x, y):
    """distance_weighted with a Mapping as it was before it read the keys:
    the weights written into every prime of the streamed window by put."""
    table = PrimeTable.of(c, float)
    term = multfunc._pretentious_term(lambda primes: table.put(np.zeros(len(primes)), primes), f, g, real=True)
    return math.sqrt(max(0.0, -multfunc.prime_window_sum(term, x, y).real))


def _outcome(call):
    """The repr of call()'s value, or the type and message of its refusal."""
    try:
        return repr(call())
    except (DomainError, ResourceError) as exc:
        return type(exc), str(exc)


# keys past the sieve_limit of 2000 that the table test runs under, and at
# 2**63 and above, where the keys become an object array
TABLE_KEYS = sieve_primes(2200) + [2**61 - 1, 2**64 - 59, 2**89 - 1]


@ORACLE
@given(st.dictionaries(st.sampled_from(TABLE_KEYS), st.complex_numbers(max_magnitude=1.0), max_size=12),
       st.sampled_from(ALL_FUNCTIONS), st.data())
def test_table_sums_match_the_sieved_window(values, fname, data):
    """The additive sums and the Mapping-weighted distance read their table's
    keys in the window; the sieve's window with the table written in by put
    gives the same bits and the same refusals.  Ends fall on keys, next to
    them, past sieve_limit or on non-finite values; tables may be empty."""
    near_key = st.sampled_from(sorted(values) or [2]).flatmap(
        lambda p: st.sampled_from([p, p - 1, p + 1, p - 0.5, p + 0.5]))
    end = st.one_of(near_key, CUTOFFS, st.sampled_from([math.inf, -math.inf, math.nan]))
    x, y = data.draw(end), data.draw(end)
    if data.draw(st.booleans()):
        x, y = min(x, y), max(x, y)
    h = additive_from_prime_values(values)
    weights = {p: abs(v) for p, v in values.items()}
    f, g = _function(fname), _function("twisted:5:1:-1.7")
    with caps_override(sieve_limit=2000):
        pairs = [
            (lambda: distance_additive(h, x, y),
             lambda: math.sqrt(sieved_table_sum(h.table, lambda p, v: abs(v) ** 2 / p, x, y).real)),
            (lambda: distance_weighted(weights, f, g, x, y),
             lambda: sieved_weighted_distance(weights, f, g, x, y)),
        ]
        if all(map(math.isfinite, (x, y))):
            k, n = math.floor(x), math.floor(y)
            want = lambda: sieved_table_sum(h.table, lambda p, v: 2.0 / p * v, k, n) if k < n else 0j
            pairs.append((lambda: predicted_additive_mean(h, k, n), want))
        for got, want in pairs:
            assert _outcome(got) == _outcome(want)


def test_table_sums_walk_no_sieve(monkeypatch):
    """With the sieve patched to raise, the additive sums and the
    Mapping-weighted distance still run to 10**8, while a distance with
    callable weights walks the sieve and meets the patch."""
    h = additive_from_prime_values({13: 1, 17: 0.5j, 99_999_989: -1})
    f, g = function_from_name("char:5:2"), function_from_name("liouville")
    weights = {13: 1.0, 17: 0.5}
    want = distance_weighted(lambda p: weights.get(p, 0.0), f, g, 10, 10**4)

    def no_sieve(*args):
        raise AssertionError("the sieve was walked")

    monkeypatch.setattr(arith, "_odd_sieve", no_sieve)
    assert distance_additive(h, 10, 10**8) == math.sqrt(math.fsum([1 / 13, 0.25 / 17, 1 / 99_999_989]))
    assert predicted_additive_mean(h, 10, 10**8) == complex(math.fsum([2 / 13, -2 / 99_999_989]), 1 / 17)
    assert distance_weighted(weights, f, g, 10, 10**4) == distance_weighted(weights, f, g, 10, 10**8) == want
    with pytest.raises(AssertionError, match="the sieve was walked"):
        distance_weighted(lambda p: weights.get(p, 0.0), f, g, 10, 10**4)


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


# Array terms per extraction in fsum_complex
TERM_CHUNK = arith._TERM_CHUNK


@st.composite
def term_streams(draw):
    """(stream, real parts, imaginary parts): one run of terms cut into
    pieces, each given as numbers, a float64 array (its imaginary parts
    then 0) or a complex128 array.  Runs of TERM_CHUNK +- 1 terms and empty
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


@pytest.mark.parametrize("size", [2 * TERM_CHUNK - 1, 2 * TERM_CHUNK, 2 * TERM_CHUNK + 1, 6 * TERM_CHUNK + 5])
@pytest.mark.parametrize("kind", ["float", "complex"])
def test_fsum_complex_streams_long_arrays(size, kind):
    """Whole arrays longer than a chunk and ending at, before or after a
    chunk edge, beside numbers and an empty array."""
    rng = np.random.default_rng(size)
    re = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    im = np.zeros(size) if kind == "float" else rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    z = re if kind == "float" else re + 1j * im
    got = fsum_complex([z, 0.5 - 2j, np.empty(0, z.dtype), -z[: size // 3]])
    want_re = math.fsum([*re.tolist(), 0.5, *(-re[: size // 3]).tolist()])
    want_im = math.fsum([*im.tolist(), -2.0, *(-im[: size // 3]).tolist()])
    assert repr((got.real, got.imag)) == repr((want_re, want_im))


# --- the exact accumulator ---------------------------------------------------------

# Terms per call of the accumulator's extraction at most
EXTRACT_TERMS = 2**21


@st.composite
def near_powers(draw):
    """+-2**k and its two neighbouring floats, subnormal k included."""
    v = math.ldexp(1.0, draw(st.integers(-1074, 1000)))
    v = draw(st.sampled_from([v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]))
    return v if draw(st.booleans()) else -v


ACCUMULATED = st.one_of(
    near_powers(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
    st.floats(-(2.0**1000), 2.0**1000),
)


@settings(settings.get_profile("oracle"), max_examples=12)
@given(st.lists(ACCUMULATED, min_size=1, max_size=8),
       st.sampled_from([1, 2, 40, TERM_CHUNK - 1, TERM_CHUNK + 1, EXTRACT_TERMS - 1, EXTRACT_TERMS,
                        EXTRACT_TERMS + 1]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_accumulator_equals_fsum_for_any_split_and_order(pool, size, cancel, seed):
    """The state of one extraction (at most 2**21 terms), states merged by
    concatenation, and fsum_complex over the terms shuffled and cut into
    arrays and numbers: each equals math.fsum of the terms with ==.  With
    cancel, all but the last three terms cancel in pairs, so the sum is
    made of those three, however small beside the rest."""
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array(pool), size)
    if cancel:
        m = max(0, size - 3) // 2
        x[m : 2 * m] = -rng.permutation(x[:m])
    want = math.fsum(x.tolist())
    head = x[:EXTRACT_TERMS]
    want_head = want if size <= EXTRACT_TERMS else math.fsum(head.tolist())
    assert repr(math.fsum(arith._exact_parts(head))) == repr(want_head)
    cut = int(rng.integers(0, size + 1))
    if size <= EXTRACT_TERMS:
        merged = arith._exact_parts(x[cut:]) + arith._exact_parts(x[:cut])
        assert repr(math.fsum(merged)) == repr(want)
    x = rng.permutation(x)
    bounds = sorted({0, size, *rng.integers(0, size + 1, int(rng.integers(0, 5))).tolist()})
    pieces = [x[lo:hi] if hi - lo > 3 else x[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])]
    stream = [t for piece in pieces for t in ([piece] if isinstance(piece, np.ndarray) else piece)]
    got = fsum_complex(stream)
    assert repr((got.real, got.imag)) == repr((want, 0.0))


@pytest.mark.parametrize("e", [1, 1000, -1030])  # -1030: subnormal terms
@pytest.mark.parametrize("size", [EXTRACT_TERMS - 1, EXTRACT_TERMS])
def test_accumulator_at_its_term_bound(e, size):
    """size terms just below 2**e with distinct low bits, whose level sums
    run up to their bound of 2**52 units, then the same terms negated in
    another order: the two states cancel exactly, leaving one tiny term."""
    rng = np.random.default_rng(size + e)
    x = np.ldexp(2.0 - rng.integers(1, 2**40, size) * 2.0**-40, e - 1)
    tiny = math.ldexp(3.0, e - 200) if e > -800 else 0.0
    parts = arith._exact_parts(x) + arith._exact_parts(-rng.permutation(x)) + [tiny]
    assert repr(math.fsum(parts)) == repr(tiny)


def test_fsum_complex_compacts_long_streams_of_numbers():
    """Past TERM_CHUNK numbers the state is replaced by its own state, again
    and again; the terms cancel down to the first ones, which must survive."""
    rng = np.random.default_rng(5)
    size = 3 * TERM_CHUNK + 5
    re = (rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)).tolist()
    im = (rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)).tolist()
    stream = [complex(a, b) for a, b in zip(re, im)] + [complex(-a, -b) for a, b in zip(re[3:], im[3:])]
    got = fsum_complex(iter(stream))
    want = (math.fsum(re + [-a for a in re[3:]]), math.fsum(im + [-b for b in im[3:]]))
    assert repr((got.real, got.imag)) == repr(want)
    assert want == (math.fsum(re[:3]), math.fsum(im[:3]))


def test_accumulator_keeps_terms_past_its_range():
    """Terms of 2**1001 or more are kept as they are, beside extracted ones."""
    terms = [2.0**1020, 2.0**1010, 1.0, -(2.0**1020), 5e-324, -3.0, math.nextafter(2.0**1001, 0.0)]
    for order in ([0, 1, 2, 3, 4, 5, 6], [3, 6, 4, 0, 5, 2, 1]):
        x = np.array([terms[i] for i in order])
        assert math.fsum(arith._exact_parts(x)) == math.fsum(terms)
        assert fsum_complex([x[:2], x[2], x[3:]]) == complex(math.fsum(terms), 0.0)


def _outcome_in_child(expr: str) -> str:
    """The repr of expr, or the name of the exception it raises, computed in
    a child process that must end within 20 s, so a sum that never ends
    fails the test instead of stalling the suite."""
    code = (
        "import math\nimport numpy as np\nfrom qpairs.arith import fsum_complex\n"
        "from qpairs.multfunc import *\n"
        f"try:\n    print(repr({expr}))\nexcept Exception as exc:\n    print(type(exc).__name__)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


@pytest.mark.parametrize("expr", [
    "fsum_complex([np.array([1.0, math.nan])])",
    "fsum_complex([np.array([-math.inf, 2.0, math.inf])])",
    "fsum_complex([np.array([2.0, math.inf])])",
    "fsum_complex([1.0, complex(0.0, math.nan)])",
    "distance_additive(additive_from_prime_values({13: complex('nan')}), 1, 100)",
    "distance_weighted({13: math.inf}, liouville(), one(), 1, 100)",
    "distance_weighted(lambda p: math.nan, liouville(), one(), 1, 100)",
])
def test_exact_sum_refuses_terms_that_are_not_finite(expr):
    """A NaN term used to be extracted again in every round of the exact
    accumulator, which never ended; -inf and +inf raised math.fsum's
    ValueError, and +inf came back as the sum.  Each raises DomainError."""
    assert _outcome_in_child(expr) == "DomainError"


# --- streamed prime windows --------------------------------------------------------

# Segments of the prime sieve start at the multiples of EDGE
EDGE = 2 * arith._SIEVE_SEGMENT
STREAM_WINDOWS = [
    (1, 1000), (2, 1000), (-3, 1.9), (0.5, 2), (2, 3), (1, EDGE - 9),  # EDGE - 9 is a prime
    (1, EDGE), (EDGE - 9, EDGE + 100), (EDGE - 10, EDGE - 9), (EDGE, EDGE + 1.5 * EDGE),
    (2_000_000, 4_500_000), (2 * EDGE - 0.5, 2 * EDGE + 5), (EDGE + 3, 2 * EDGE),
]


def _streamed(x, y) -> np.ndarray:
    chunks = list(arith._prime_window(x, y))
    assert all(0 < len(c) <= TERM_CHUNK and not c.flags.writeable for c in chunks)
    return np.concatenate([np.zeros(0, np.int64), *chunks])


def test_streamed_windows_equal_the_prime_array():
    """Windows starting past 2 and ending on a segment edge or at a prime,
    against the whole prime array to past the last of them."""
    table = arith._prime_array(3 * EDGE)
    assert is_prime(EDGE - 9) and not any(is_prime(n) for n in range(EDGE - 8, EDGE + 1))
    for x, y in STREAM_WINDOWS:
        assert _streamed(x, y).tolist() == table[(table > x) & (table <= y)].tolist(), (x, y)


@settings(settings.get_profile("oracle"), max_examples=150)
@given(st.sampled_from([1, 2, 7, 64]), st.integers(-3, 3600), st.integers(0, 3600))
def test_streamed_windows_match_trial_division(segment, x, width):
    """Short segments put many edges in every window."""
    oracle = oracle_primes(3600 + 3600)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_SIEVE_SEGMENT", segment)
        got = _streamed(x, x + width).tolist()
    assert got == [p for p in oracle if x < p <= x + width]


def test_distance_profile_sums_each_term_once(monkeypatch):
    """Each prime up to the largest cutoff reaches the term function once,
    across a segment edge, and each entry equals distance at its cutoff."""
    seen = []
    make = multfunc._pretentious_term

    def counting(*args, **kwargs):
        term = make(*args, **kwargs)
        return lambda primes: seen.append(primes.copy()) or term(primes)

    monkeypatch.setattr(multfunc, "_pretentious_term", counting)
    f, g = _function("twisted:7:2:0.5"), _function("liouville")
    cutoffs = [5e5, 1e3, EDGE + 0.5, 5e5, 1.5, 3e4, EDGE - 9]
    profile = distance_profile(f, g, cutoffs)
    assert np.concatenate(seen).tolist() == sieve_primes(EDGE)
    monkeypatch.undo()
    assert profile == [(y, distance(f, g, 1, y)) for y in cutoffs]


def test_distance_to_the_sieve_cap_runs_in_bounded_memory():
    """distance --y 1e8, at the sieve cap, streams its window: 126.6 MB peak
    RSS when it read a table of every prime to 10**8, about 40 MB now."""
    assert caps().sieve_limit == 10**8
    run = peak_rss.measure(["distance", "--f", "liouville", "--y", "1e8"])
    assert run["exit"] == 0
    assert run["peak_rss_mb"] < 80, run


def test_prime_search_to_the_sieve_cap_stops_with_its_witness():
    """classify 1 2 5 finds its witness 23 in the first sieve segment and
    sieves no further: 122.9 MB peak RSS when the search read a table of
    every prime to 10**8, about 37 MB now."""
    run = peak_rss.measure(["classify", "1", "2", "5", "--prime-limit", "100000000"])
    assert run["exit"] == 0
    assert run["peak_rss_mb"] < 60, run


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


# --- prime arrays and factorization ---------------------------------------------


def _limits():
    """2, 3, p**2 and p**2 +- 1 for small primes, and their even and odd
    neighbours."""
    out = {2, 3, 4, 5, 8, 9, 10}
    for p in oracle_primes(60):
        out |= {p * p - 1, p * p, p * p + 1, p * p + 2}
    return sorted(out)


@pytest.mark.parametrize("segment", [1, 2, 7, 64, arith._SIEVE_SEGMENT])
def test_sieve_matches_trial_division(monkeypatch, segment):
    """Builds at each limit, with segments shorter than, equal to and
    longer than the sieving primes."""
    monkeypatch.setattr(arith, "_SIEVE_SEGMENT", segment)
    oracle = oracle_primes(max(_limits()))
    for limit in _limits():
        want = [p for p in oracle if p <= limit]
        assert sieve_primes(limit) == want, limit
        assert arith._prime_array(limit).tolist() == want


def test_handed_out_prime_arrays_are_read_only():
    whole = arith._prime_array(1000)
    prefix = arith._prime_array(100)
    assert whole.dtype == prefix.dtype == np.int64
    for array in (whole, prefix):
        with pytest.raises(ValueError):
            array[0] = 4
    assert sieve_primes(1000)[:3] == [2, 3, 5]
    copy = sieve_primes(100)
    copy[0] = 4  # a list of its own
    assert sieve_primes(100)[0] == 2


@pytest.mark.parametrize("a, q", [(1, 4), (2, 3), (1, 3 * EDGE), (EDGE + 1, 2 * EDGE)])
def test_prime_search_sieves_until_its_prime(monkeypatch, a, q):
    """A search in a residue class sieves the segments up to the one that
    holds its prime, and none past it; a limit over sieve_limit is refused
    before the first segment."""
    segments = []
    sieve = arith._odd_sieve

    def counting(*args):
        for chunk in sieve(*args):
            segments.append(chunk)
            yield chunk

    monkeypatch.setattr(arith, "_odd_sieve", counting)
    p = arith.find_prime_in_class(a, q, 10**8)
    assert p == next(n for n in range(a, 10**8, q) if is_prime(n))
    assert len(segments) == p // EDGE + 1
    segments.clear()
    with caps_override(sieve_limit=10**6), pytest.raises(ResourceError, match="sieve limit 10000000 exceeds cap"):
        arith.find_prime_in_class(a, q, 10**7)
    assert segments == []


def test_factorization_needs_no_sieve():
    """Trial division reads its fixed table of the primes below 2**16, so a
    lowered sieve_limit changes no factorization or root count, even where
    the table is first built under it."""
    form = BinaryQuadraticForm(1, 0, 1)
    want = arith.factorize(10**7 + 19), local_root_count_fast(form, 10**6 + 3)
    with caps_override(sieve_limit=100):
        assert local_root_count_fast(form, 10**6 + 3) == want[1]
        assert local_root_count(form, 10**6 + 3) == want[1]
    for fresh in (False, True):
        if fresh:
            arith._trial_primes.cache_clear()
        with caps_override(sieve_limit=1000):
            assert arith.factorize(10**7 + 19) == want[0]
    assert arith._trial_primes().tolist() == oracle_primes(arith._TRIAL_LIMIT)


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
