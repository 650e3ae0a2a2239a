import bisect
import cmath
import gc
import math
import random
import struct
import sys
import threading
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpairs import arith, multfunc
from qpairs.arith import is_prime, sieve_primes
from qpairs.caps import override as caps_override
from qpairs.errors import DomainError, ResourceError
from qpairs.multfunc import (
    EvalHint,
    MultiplicativeFunction,
    PrimeTable,
    additive_from_prime_values,
    archimedean,
    character_extended,
    character_function,
    dirichlet_character,
    dirichlet_characters,
    distance,
    distance_form,
    distance_weighted,
    evaluate,
    evaluate_many,
    evaluate_on_exponents,
    function_from_name,
    liouville,
    one,
    prime_patch,
    twisted,
)
from qpairs.quadforms import BinaryQuadraticForm


# --- evaluation ---------------------------------------------------------------

def test_liouville_values():
    lam = liouville()
    assert evaluate(lam, 12) == -1  # (-1)^3
    assert evaluate(lam, -12) == -1  # even extension
    assert evaluate(lam, 0) == 0
    assert evaluate(lam, 1) == 1


def test_archimedean_direct_rule():
    f = archimedean(1.0)
    expected = cmath.exp(1j * math.log(10))
    assert evaluate(f, 10) == expected
    assert abs(expected.real - (-0.66820)) < 1e-4
    assert evaluate(f, -10) == expected


def test_evaluate_on_exponents_examples():
    lam = liouville()
    assert evaluate_on_exponents(lam, {2: 6, 3: 6}) == 1
    assert evaluate_on_exponents(lam, {2: 5, 3: 4}) == -1
    chi = dirichlet_characters(4)[1]
    assert evaluate_on_exponents(character_function(chi), {3: 2}) == chi(3) ** 2 == 1


def test_evaluate_on_exponents_rejects_zero_exponent():
    with pytest.raises(DomainError):
        evaluate_on_exponents(liouville(), {2: 0})


def test_exponent_evaluation_matches_expansion():
    functions = [
        liouville(),
        character_function(dirichlet_characters(4)[1]),
        archimedean(0.7),
        prime_patch(2, 6, -1.0),
    ]
    primes = [2, 3, 5, 7]
    for exps in product(range(5), repeat=4):
        assignment = {p: e for p, e in zip(primes, exps) if e > 0}
        if not assignment:
            continue
        value = 1
        for p, e in assignment.items():
            value *= p**e
        for f in functions:
            assert abs(evaluate_on_exponents(f, assignment) - evaluate(f, value)) < 1e-12


def test_multiplicativity_random():
    rng = random.Random(7)
    fs = [liouville(), archimedean(0.3), character_function(dirichlet_characters(5)[1])]
    for _ in range(200):
        m = rng.randint(1, 500)
        n = rng.randint(1, 500)
        if math.gcd(m, n) != 1:
            continue
        for f in fs:
            assert abs(evaluate(f, m * n) - evaluate(f, m) * evaluate(f, n)) < 1e-10


# --- the one constructor of chi * n^{it} with prime overrides -------------------

CHI7 = dirichlet_characters(7)[1]


@pytest.mark.parametrize("overrides, t", [
    ({2: math.nan}, 0.0),  # evaluate_many would return NaN
    ({2: complex(0.5, math.nan)}, 0.7),
    ({3: complex(math.inf, 0.0)}, 0.0),
    ({2: 2.0}, 0.0),  # modulus 2: off the unit disk
    ({2: 0.5}, math.inf),
    ({2: 0.5}, math.nan),
    ({2: 0.5}, 1e308),  # t * ln n overflows
    ({4: -1.0}, 0.0),  # evaluate_many would give -1 at n = 4, the scalar rule 1
    ({1: -1.0}, 0.0),  # evaluate_many would never leave its stripping loop
    ({0: 1.0}, 0.0),
    ({-3: 1.0}, 0.0),
    ({-(2**70): 1.0}, 0.0),
    ({10**9 + 1: 1.0}, 0.0),  # past any sieve: 10**9 + 1 = 7 * 11 * 13 * 19 * 52579
    ({2.5: -1.0}, 0.0),  # int() would truncate it to 2
    ({3.0: -1.0}, 0.0),  # keys are integers, not integral floats
    ({"3": -1.0}, 0.0),
    ({None: -1.0}, 0.0),
])
def test_character_extended_refuses_bad_input(overrides, t):
    with pytest.raises(DomainError):
        character_extended(CHI7, overrides, t)


def test_override_keys_read_from_prime_table():
    """A patch takes every prime of its range as a key; checked keys may lie
    far past any sieve."""
    assert len(prime_patch(10, 10**5, -1).hint.overrides.keys) == 9588
    f = character_extended(CHI7, {3: -1, 10**9 + 7: 1j, 2**61 - 1: -1j})
    assert f.hint.overrides.keys.tolist() == [3, 10**9 + 7, 2**61 - 1]
    assert evaluate(f, 3 * (10**9 + 7)) == -1j
    assert evaluate(f, 2**61 - 1) == -1j


def test_override_keys_take_numpy_integers():
    f = character_extended(CHI7, {np.int64(3): -1, np.uint16(5): 1j})
    assert f.hint.overrides == character_extended(CHI7, {3: -1, 5: 1j}).hint.overrides
    assert f.hint.overrides.keys.dtype == np.int64


def test_override_past_int64_in_evaluate_many():
    """An override prime above a batch's largest |value| divides none of its
    values, so an int64 batch never meets it; an object batch that holds it
    still takes its value."""
    big = 2**89 - 1
    f = character_extended(multfunc.TRIVIAL_CHARACTER, {3: -1, big: -1})
    assert evaluate(f, big) == -1
    values = np.array([0, 1, 2, 3, 6, -9, 2**62])
    assert evaluate_many(f, values).tolist() == [evaluate(f, int(v)) for v in values]
    values = np.array([0, 1, 3, big, -3 * big, big * big, 2**70], dtype=object)
    got = evaluate_many(f, values).tolist()
    assert got == [0, 1, -1, -1, 1, 1, 1]
    assert got[:5] == [evaluate(f, int(v)) for v in values[:5]]


def test_prime_patch_checks_value_before_prime_table():
    with pytest.raises(DomainError):  # not the ResourceError of a sieve past its cap
        prime_patch(10, 10**9, math.nan)


@pytest.mark.parametrize("lo, hi", [(10, 10**6), (-5, 2), (0, 1), (7, 7), (100, 10), (10**6, 3 * 10**6)])
def test_prime_patch_keys_are_the_primes_of_its_range(lo, hi):
    """The keys are the primes in (lo, hi]; two patches of one range share
    one key array, and no patch holds one value per key."""
    overrides = prime_patch(lo, hi, -1).hint.overrides
    primes = arith._prime_array(max(2, hi))
    assert overrides.keys.dtype == np.int64
    assert overrides.keys.tolist() == primes[(primes > lo) & (primes <= hi)].tolist()
    assert overrides.values.strides == (0,)
    assert prime_patch(lo, hi, 0.5j).hint.overrides.keys is overrides.keys


def test_prime_patch_keys_obey_the_caps_in_force():
    """The keys of a range are shared while a patch holds them, but a lowered
    sieve_limit still refuses the range."""
    f = prime_patch(10, 10**5, -1)
    with caps_override(sieve_limit=10**4):
        with pytest.raises(ResourceError):
            prime_patch(10, 10**5, -1)
    assert f.hint.overrides.keys[-1] == 99_991


def test_prime_patch_keys_go_with_the_last_patch():
    """Two live patches of a range share its keys, and the array is freed
    with the last of them: no patch left, no keys kept."""
    f, g = prime_patch(10, 10**5, -1), prime_patch(10, 10**5, 0.5j)
    keys = weakref.ref(f.hint.overrides.keys)
    del f
    gc.collect()
    assert keys() is g.hint.overrides.keys
    del g
    gc.collect()
    assert keys() is None


@pytest.mark.parametrize("key", [2.5, "3", 4, 169])
def test_additive_supports_and_weights_refuse_non_prime_keys(key):
    with pytest.raises(DomainError):
        additive_from_prime_values({key: 1, 13: 1})
    with pytest.raises(DomainError):
        distance_weighted({key: 1.0}, liouville(), one(), 1, 100)


# keys of 2**63 or more: 2**64 - 59 is the largest prime below 2**64
_BIG_PRIMES = [10**9 + 7, 2**61 - 1, 2**64 - 59, 2**89 - 1]
_EXACT_VALUES = [1 + 0j, -1 + 0j, 1j, -1j, 0.5 + 0j, -0.5j, 0j]  # every product of these is exact
_PRIMES_TO_1E6 = 78_498  # three chunks of _TERM_CHUNK primes


@settings(settings.get_profile("oracle"), max_examples=40)
@example(small={}, big={}, lo=0, length=_PRIMES_TO_1E6, seed=0)
@example(small={5: -1 + 0j}, big={}, lo=0, length=100, seed=3)
@example(small={i: -1 + 0j for i in range(0, _PRIMES_TO_1E6, 997)}, big={2**89 - 1: 1j},
         lo=3, length=_PRIMES_TO_1E6, seed=1)
@example(small={0: 1j, 70_000: -1 + 0j}, big={2**64 - 59: -1 + 0j}, lo=60_000, length=20_000, seed=2)
@given(
    small=st.dictionaries(st.integers(0, _PRIMES_TO_1E6 - 1), st.sampled_from(_EXACT_VALUES), max_size=30),
    big=st.dictionaries(st.sampled_from(_BIG_PRIMES), st.sampled_from(_EXACT_VALUES)),
    lo=st.integers(0, _PRIMES_TO_1E6),
    length=st.integers(0, _PRIMES_TO_1E6),
    seed=st.integers(0, 2**32 - 1),
)
def test_prime_table_reads_match_dict(small, big, lo, length, seed):
    """The vector lookup over a window of primes, alone and by prime-sum
    chunks, and evaluate_many's walk of the keys up to a batch's largest
    value, against a dict of the same keys: windows start anywhere, keys lie
    past them or at 2**63 and above, and tables may be empty."""
    primes = arith._prime_array(10**6)
    table = {int(primes[i]): v for i, v in small.items()} | big
    t = PrimeTable.of(table)
    window = primes[lo : lo + length]
    want = np.array([table.get(p, 0j) for p in window.tolist()], dtype=np.complex128)
    assert t.put(np.zeros(len(window), dtype=np.complex128), window).tobytes() == want.tobytes()
    if len(window):
        term = lambda ps: t.put(np.zeros(len(ps), dtype=np.complex128), ps)
        got = multfunc.prime_window_sum(term, int(window[0]) - 1, int(window[-1]))
        assert got == arith.fsum_complex([want])

    f = character_extended(multfunc.TRIVIAL_CHARACTER, table)
    rng = random.Random(seed)
    pool = sorted(table) + [2, 3, 5, 7, 999_983]
    batch, expected = [0], [0j]
    for _ in range(60):
        factors = rng.choices(pool, k=rng.randint(0, 4))
        batch.append(math.prod(factors) * rng.choice((1, -1)))
        expected.append(math.prod((table.get(p, 1 + 0j) for p in factors), start=1 + 0j))
    assert evaluate_many(f, np.array(batch, dtype=object)).tolist() == expected
    small_batch = [(v, w) for v, w in zip(batch, expected) if abs(v) < 2**62]
    values = np.array([v for v, _ in small_batch], dtype=np.int64)
    assert evaluate_many(f, values).tolist() == [w for _, w in small_batch]
    for p in rng.sample(pool, 4):  # batches whose largest value is a key
        assert evaluate_many(f, np.array([-p, 1], dtype=object)).tolist() == [table.get(p, 1 + 0j), 1]


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _factor_product(rule, n: int) -> complex:
    out = 1 + 0j
    for p, e in arith.factorize(n).factors:
        out *= rule(p, e)
        if out == 0:
            return 0j
    return out


def _builtin_formulas():
    """(f, prime-power rule, direct rule or None, hint), with each built-in's
    formulas written out one by one as the reference; character_extended's
    rule is the one its docstring states."""
    def it(t, n):
        return cmath.exp(1j * t * math.log(n))

    cases = [(one(), lambda p, k: 1 + 0j, None, EvalHint("periodic"))]
    for t in (0.7, -1.7, 2.0):
        cases.append((archimedean(t), lambda p, k, t=t: cmath.exp(1j * t * k * math.log(p)),
                      lambda n, t=t: it(t, n), EvalHint("periodic", t=t)))
    for chi in (dirichlet_characters(4)[1], dirichlet_characters(5)[2], CHI7, dirichlet_characters(12)[3]):
        cases.append((character_function(chi), lambda p, k, chi=chi: chi(p) ** k, chi,
                      EvalHint("periodic", chi=chi)))
        for t in (0.5, -1.3):
            cases.append((twisted(chi, t), lambda p, k, chi=chi, t=t: (chi(p) * it(t, p)) ** k,
                          lambda n, chi=chi, t=t: chi(n) * it(t, n), EvalHint("periodic", chi=chi, t=t)))
    for value in (-1.0, 0.5j, -1j, 0.6 + 0.8j, 0.0):
        v = complex(value)
        patched = {p: v for p in sieve_primes(200) if p > 3}
        cases.append((prime_patch(3, 200, value), lambda p, k, v=v: v**k if 3 < p <= 200 else 1 + 0j,
                      None, EvalHint("periodic", overrides=PrimeTable.of(patched))))
    ov = {2: 0.5j, 3: -1.0 + 0j, 5: 0.6 + 0.8j}
    for t in (0.0, 0.7):
        rule = (lambda p, k, t=t: (ov.get(p, CHI7(p)) * it(t, p)) ** k) if t else (lambda p, k: ov.get(p, CHI7(p)) ** k)
        cases.append((character_extended(CHI7, ov, t), rule, None,
                      EvalHint("periodic", CHI7, t, PrimeTable.of(ov))))
    return cases


def test_builtin_rules_bit_for_bit():
    """Rules, scalar values and hints, compared with == and the signs of zero
    parts, for p < 500, k <= 6 and 1 <= n <= 2000."""
    primes = sieve_primes(499)
    for f, rule, direct, hint in _builtin_formulas():
        assert f.hint == hint, f.description
        for p, k in product(primes, range(1, 7)):
            assert _bits(f.prime_power_rule(p, k)) == _bits(rule(p, k)), (f.description, p, k)
        for n in range(1, 2001):
            want = complex(direct(n)) if direct else _factor_product(rule, n)
            assert _bits(evaluate(f, n)) == _bits(want), (f.description, n)


# Every name form the CLI accepts; FUNC prints f.description into the run id text.
CLI_NAMES = [
    "liouville", "principal", "char:1:0", "char:4:1", "char:5:2", "char:12:3", "arch:0.7",
    "arch:-1.7", "arch:2.0", "arch:1e-300", "twisted:1:0:0.5", "twisted:5:1:0.5", "twisted:7:2:-1.3",
    "prime-patch:10:100:-1", "prime-patch:1:3:0.5j", "prime-patch:1:3:-1j",
    "prime-patch:5:50:0.6+0.8j", "prime-patch:20:10:-1",
]


@pytest.mark.parametrize("name", CLI_NAMES)
def test_description_round_trip(name):
    f = function_from_name(name)
    g = function_from_name(f.description)
    assert (g.description, g.hint) == (f.description, f.hint)


# --- characters ---------------------------------------------------------------

def test_characters_q4():
    chars = dirichlet_characters(4)
    assert len(chars) == 2
    assert chars[0].principal
    assert chars[1](3) == -1


def test_characters_q5_orders():
    chars = dirichlet_characters(5)
    assert len(chars) == 4
    assert sorted(c.order for c in chars) == [1, 2, 4, 4]
    # every table is a homomorphism on units (exhaustive oracle)
    for c in chars:
        for a in range(1, 5):
            for b in range(1, 5):
                assert abs(c(a * b) - c(a) * c(b)) < 1e-12


def test_characters_q8_all_real():
    chars = dirichlet_characters(8)
    assert len(chars) == 4
    assert all(abs(v.imag) < 1e-15 for c in chars for v in c.table)


def test_character_zero_off_units_and_roots_of_unity():
    for q in (4, 5, 8, 9, 12, 15):
        chars = dirichlet_characters(q)
        phi = sum(1 for a in range(q) if math.gcd(a, q) == 1)
        assert len(chars) == phi
        exponent = 1
        for c in chars:
            exponent = exponent * c.order // math.gcd(exponent, c.order)
        for c in chars:
            for a in range(q):
                if math.gcd(a, q) == 1:
                    assert abs(abs(c(a)) - 1) < 1e-12
                    assert abs(c(a) ** exponent - 1) < 1e-10
                else:
                    assert c(a) == 0


def test_character_orthogonality():
    for q in range(1, 51):
        chars = dirichlet_characters(q)
        phi = sum(1 for a in range(max(q, 1)) if math.gcd(a, q) == 1)
        for i, c1 in enumerate(chars):
            for j, c2 in enumerate(chars):
                s = sum(c1(a) * c2(a).conjugate() for a in range(q))
                expected = phi if i == j else 0.0
                assert abs(s - expected) < 1e-9


def test_one_character_matches_the_dual_group():
    """char:q:i built alone equals the i-th of the full list, table bits
    included, and takes the value e(c_j / s_j) at the j-th generator, where
    (c_1, ..., c_r) are the digits of i in mixed radix over the generator
    orders s_j, the first generator most significant."""
    for q in range(1, 101):
        gens = multfunc._unit_group_generators(q)
        chars = dirichlet_characters(q)
        assert len(chars) == math.prod(s for _, s in gens)
        for i, chi in enumerate(chars):
            alone = dirichlet_character(q, i)
            assert alone == chi and hash(alone) == hash(chi)
            assert alone.table.tobytes() == chi.table.tobytes()
            assert (alone.label, alone.principal) == (f"char:{q}:{i}", i == 0)
            assert not alone.table.flags.writeable
            rest = i
            for g, s in reversed(gens):
                rest, c = divmod(rest, s)
                assert alone(g) == multfunc.root_of_unity(c, s)


@pytest.mark.parametrize("q", [1, 2, 5, 12, 1009])
def test_character_index_outside_range_is_refused(q):
    count = len(dirichlet_characters(q))
    for index in (-1, count):
        with pytest.raises(DomainError, match="character index"):
            dirichlet_character(q, index)


def test_one_character_takes_one_walk(monkeypatch):
    """char:1009:1 computes each root of unity once: at most phi(1009) calls,
    where building every character mod 1009 makes about phi(1009)**2."""
    calls = []
    real = multfunc.root_of_unity
    monkeypatch.setattr(multfunc, "root_of_unity", lambda k, n: calls.append(k) or real(k, n))
    f = function_from_name("char:1009:1")
    assert 0 < len(calls) <= 1008
    assert f.description == "char:1009:1"


# --- distances ----------------------------------------------------------------

def test_distance_identity_and_examples():
    lam = liouville()
    assert distance(lam, lam, 1, 100) == 0.0
    # oracle: direct sum over p in (1, 10]
    direct = math.sqrt(sum(2.0 / p for p in (2, 3, 5, 7)))
    assert abs(distance(lam, one(), 1, 10) - direct) < 1e-14
    assert abs(direct - 1.53374) < 1e-5
    assert distance(lam, lam, 10, 10**4) == 0.0


def test_distance_form_examples():
    P = BinaryQuadraticForm(1, 0, 1)
    lam = liouville()
    # oracle: exhaustive root counts mod 2, 3, 5, 7
    counts = {
        p: sum(1 for x in range(p) if (x * x + 1) % p == 0) for p in (2, 3, 5, 7)
    }
    assert counts == {2: 1, 3: 0, 5: 2, 7: 0}
    direct = math.sqrt(sum(counts[p] / p * 2.0 for p in counts))
    assert abs(distance_form(P, lam, one(), 1, 10) - direct) < 1e-14
    assert abs(direct - math.sqrt(1.8)) < 1e-14
    assert distance_form(P, lam, lam, 1, 100) == 0.0
    assert distance_form(P, lam, one(), 3, 4) == 0.0


def test_distance_weighted_examples():
    lam = liouville()
    assert distance_weighted(lambda p: 1.0, lam, one(), 1, 10) == distance(lam, one(), 1, 10)
    assert distance_weighted(lambda p: 0.0, lam, one(), 1, 100) == 0.0
    c = {5: 2.0, 13: 2.0}
    direct = math.sqrt(4 * (1 / 5 + 1 / 13))
    assert abs(distance_weighted(c, lam, one(), 1, 13) - direct) < 1e-14


@pytest.mark.parametrize("weights", [
    {13: -5.0}, {5: 1.0, 13: math.inf}, {101: -1.0}, lambda p: -1.0,
    lambda p: math.inf if p == 13 else 1.0,
])
def test_distance_weighted_refuses_bad_weights(weights):
    """Weights must be finite and nonnegative: every value of a Mapping, in
    the window or not, and every value the callable returns.  A negative
    weight used to come back as distance 0.0, an infinite one as inf."""
    with pytest.raises(DomainError, match="finite and nonnegative"):
        distance_weighted(weights, liouville(), one(), 1, 100)


def _random_unit_function(rng):
    values = {p: cmath.exp(2j * math.pi * rng.random()) for p in sieve_primes(100)}

    def rule(p, k):
        return values.get(p, 1.0) ** k

    return MultiplicativeFunction(description="random-unit", prime_power_rule=rule)


def test_triangle_and_product_inequalities():
    P = BinaryQuadraticForm(1, 0, 1)
    rng = random.Random(20240501)
    for _ in range(50):
        f, g, h = (_random_unit_function(rng) for _ in range(3))
        dfg = distance_form(P, f, g, 1, 100)
        dfh = distance_form(P, f, h, 1, 100)
        dhg = distance_form(P, h, g, 1, 100)
        assert dfg <= dfh + dhg + 1e-10
        f2, g2 = _random_unit_function(rng), _random_unit_function(rng)

        def prod(u, v):
            return MultiplicativeFunction(
                description="prod",
                prime_power_rule=lambda p, k: u.prime_power_rule(p, k) * v.prime_power_rule(p, k),
            )

        lhs = distance_form(P, prod(f, f2), prod(g, g2), 1, 100)
        rhs = distance_form(P, f, g, 1, 100) + distance_form(P, f2, g2, 1, 100)
        assert lhs <= rhs + 1e-10


# --- bulk evaluation ------------------------------------------------------------

def test_evaluate_many_matches_scalar():
    values = np.array([-30, -1, 0, 1, 2, 9, 12, 30, 49, 97, 100], dtype=np.int64)
    chi = dirichlet_characters(4)[1]
    funcs = [
        liouville(),
        one(),
        archimedean(0.9),
        character_function(chi),
        twisted(chi, 0.5),
        character_extended(chi, {2: 1.0}),
        prime_patch(10, 100, -1.0),
    ]
    for f in funcs:
        bulk = evaluate_many(f, values)
        assert bulk.dtype == (np.int8 if f.hint.kind == "liouville" else np.complex128)
        for v, got in zip(values, bulk):
            assert abs(got - evaluate(f, int(v))) < 1e-12, (f.description, v)


def test_evaluate_many_without_hint_keeps_shape():
    """A function with no hint is evaluated value by value over a batch of
    any shape, and returns that shape."""
    f = MultiplicativeFunction("no hint", lambda p, k: (-1.0) ** k)
    values = np.arange(-12, 12, dtype=np.int64).reshape(4, 6)
    bulk = evaluate_many(f, values)
    assert bulk.dtype == np.complex128 and bulk.shape == (4, 6)
    assert bulk.tolist() == [[evaluate(f, int(v)) for v in row] for row in values]
    assert evaluate_many(f, np.array(12)).shape == ()


# Every function_from_name built-in, and chi * n^{it} with overrides.
BATCH_FUNCTIONS = [
    "liouville", "principal", "char:7:2", "arch:2.0", "twisted:7:2:0.5", "prime-patch:10:100:-1",
    "prime-patch:10:100:0.5j",
]


def _batch_functions():
    ext = character_extended(dirichlet_characters(7)[1], {2: 0.5j, 3: -1.0, 5: 0.6 + 0.8j}, t=0.7)
    unit = character_extended(multfunc.TRIVIAL_CHARACTER, {2: cmath.exp(1j), 3: -1.0})
    return [function_from_name(name) for name in BATCH_FUNCTIONS] + [ext, unit]


@settings(settings.get_profile("oracle"), max_examples=6)
@example(seed=0, size=40_000, cuts=list(range(1000, 40_000, 1000)))
@example(seed=1, size=2_000, cuts=[3, 4, 5, 6, 7])
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 40_000),
    cuts=st.lists(st.integers(0, 40_000), max_size=5),
)
def test_evaluate_many_independent_of_batch_split(seed, size, cuts):
    """The bytes of evaluate_many over an array equal those of its pieces,
    concatenated.  numpy swaps a product's operands when it elides a large
    temporary, and multiplies one element in place with another kernel."""
    values = np.random.default_rng(seed).integers(-10**6, 10**6, size)
    bounds = [0, *sorted(min(c, size) for c in cuts), size]
    for f in _batch_functions():
        for batch in (values, values.astype(object)):
            whole = evaluate_many(f, batch)
            pieces = [evaluate_many(f, batch[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
            assert whole.tobytes() == np.concatenate(pieces).tobytes(), (f.description, batch.dtype)


def _whole_batch_overrides(f, values):
    """evaluate_many's chi * n^{it} path as it was when every override prime
    stripped a copy of the whole batch and multiplied the whole batch by its
    correction, 1 + 0j where p divides nothing: the reference for the loop
    that reads only the values each prime divides."""
    hint = f.hint
    flat = np.abs(values)
    w = np.where(flat == 0, 1, flat).astype(object if flat.dtype == object else np.int64)
    out = np.ones(flat.shape, dtype=np.complex128)
    top = int(flat.max(initial=0))
    overrides = zip(hint.overrides.keys.tolist(), hint.overrides.values.tolist())
    for p, val in sorted(item for item in overrides if item[0] <= top):
        w = w.copy()
        corr = np.ones(len(w), dtype=np.complex128)
        mask = w % p == 0
        while mask.any():
            w[mask] = w[mask] // p
            corr[mask] = np.multiply(corr[mask], val)
            mask = w % p == 0
        out = np.multiply(out, corr)
    if hint.chi.q != 1:
        out = np.multiply(hint.chi.table[(w % hint.chi.q).astype(np.int64)], out)
    if hint.t != 0.0:
        out = np.multiply(out, multfunc._unit_power(flat, hint.t))
    out[flat == 0] = 0j
    return out


@pytest.mark.parametrize("f, zero_signs_move", [
    *((prime_patch(1, 30, value), value in (-1.0, 0.5j))
      for value in (-1.0, 0.0, 0.5j, 0.6 + 0.8j, cmath.exp(1j))),
    (character_extended(dirichlet_characters(7)[1], {2: cmath.exp(1j), 3: -1.0, 5: 0.6 + 0.8j},
                        t=0.7), False),
], ids=lambda x: getattr(x, "description", str(x)))
def test_overrides_match_whole_batch_loop(f, zero_signs_move):
    """evaluate_many equals the whole-batch loop with == everywhere, and keeps
    its bits wherever an override prime divides the value.  Only where an
    override has a zero part (-1, 0.5j) may the sign of a zero part differ:
    the whole-batch loop multiplies such a value again by 1 + 0j at every
    larger override prime, and that can turn -0.0 into +0.0."""
    rng = np.random.default_rng(7)
    small = np.array([2, 3, 5, 7, 11, 13, 29, 31])
    values = rng.integers(-10**6, 10**6, 20_000)
    values[::3] = np.prod(small[rng.integers(0, len(small), (len(values[::3]), 6))], axis=1)
    values[:5] = [0, 1, 2**62, 3**39, -(5**27)]
    for batch in (values, np.append(values.astype(object), [2**70 * 3**5, -(5**40) * 7, 2**89 - 1])):
        got, want = evaluate_many(f, batch), _whole_batch_overrides(f, batch)
        assert (got == want).all(), batch.dtype
        keys = f.hint.overrides.keys.tolist()
        divided = np.array([any(int(v) % p == 0 for p in keys) and v != 0 for v in batch])
        assert divided.sum() > len(batch) // 3
        if not zero_signs_move:
            assert got[divided].tobytes() == want[divided].tobytes(), batch.dtype


def test_liouville_sieve_against_factorization():
    import numpy as np

    lam = liouville()
    values = np.arange(1, 3001, dtype=np.int64)
    table = evaluate_many(lam, values)
    for n in range(1, 3001):
        omega_total = sum(e for _, e in trial_factor(n))
        assert table[n - 1] == (-1.0) ** omega_total


def trial_factor(n):
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


# --- the segmented Liouville sieve ------------------------------------------

SEGMENT = multfunc._LIOUVILLE_SEGMENT
SPAN = 3 * SEGMENT + SEGMENT // 3  # three full segments and a partial fourth


def _liouville_whole_array(limit, start=0):
    """lambda(n) for start <= n <= limit by exact division: the whole-array
    sieve the segmented one replaced (18 B per entry), on any window."""
    parity = np.zeros(limit + 1 - start, dtype=np.int8)
    rem = np.arange(start, limit + 1, dtype=np.int64)
    for p in sieve_primes(max(2, math.isqrt(limit))):
        pe = p
        while pe <= limit:
            first = -start % pe
            parity[first::pe] ^= 1
            rem[first::pe] //= p
            pe *= p
    parity[rem > 1] ^= 1  # one prime factor > sqrt(limit) remains
    table = np.where(parity == 0, 1, -1).astype(np.int8)
    if start == 0:
        table[0] = 0
    return table


def _unpack(packed, start=0):
    """lambda(n) for start <= n < start + 8 * len(packed) as int8, read from
    packed signs: bit n % 8 of byte n // 8 is set where lambda(n) = -1.  With
    start = 0, n = 0 reads 0 if its bit is clear and -1 if it is set."""
    bits = np.unpackbits(packed, bitorder="little")
    lam = 1 - 2 * bits.astype(np.int8)
    if start == 0 and len(lam) and bits[0] == 0:
        lam[0] = 0
    return lam


@pytest.fixture(scope="module")
def liouville_oracle():
    """lambda(n) for n <= SPAN | 7, the last entry of the packed table
    _liouville_sieve(SPAN) builds."""
    return _liouville_whole_array(SPAN | 7)


@pytest.fixture
def fresh_caches(monkeypatch):
    """An empty Liouville table, restored after the test."""
    monkeypatch.setattr(multfunc, "_liouville_table", None)
    return monkeypatch


def test_segmented_liouville_matches_whole_array(fresh_caches, liouville_oracle):
    table = multfunc._liouville_sieve(SPAN)
    assert table.dtype == np.uint8 and 8 * len(table) == (SPAN | 7) + 1
    assert np.array_equal(_unpack(table), liouville_oracle)


def test_liouville_growth_equals_fresh_build(fresh_caches, liouville_oracle):
    small = multfunc._liouville_sieve(1000).copy()
    middle = multfunc._liouville_sieve(SEGMENT + 5).copy()  # grows from 1008, not a boundary
    grown = multfunc._liouville_sieve(SPAN)  # grows from SEGMENT + 8
    assert (8 * len(small), 8 * len(middle), 8 * len(grown)) == (1008, SEGMENT + 8, (SPAN | 7) + 1)
    assert np.array_equal(_unpack(small), liouville_oracle[:1008])
    assert np.array_equal(_unpack(middle), liouville_oracle[: SEGMENT + 8])
    assert np.array_equal(_unpack(grown), liouville_oracle)
    fresh_caches.setattr(multfunc, "_liouville_table", None)
    assert np.array_equal(_unpack(grown), _unpack(multfunc._liouville_sieve(SPAN)))


@pytest.mark.parametrize("first, limits", [
    (None, (2, 7, 8, 9, 1000, 1009**2 - 1, SEGMENT - 1, SEGMENT, SEGMENT + 5, SPAN)),
    # growth from 1008 and from SEGMENT + 8 entries, neither a segment boundary
    (1000, (2016, 2017, 1021**2 - 1, SEGMENT + 5, 3 * SEGMENT + 1)),
    (SEGMENT + 5, (2 * SEGMENT + 16, 1601**2 - 1, SPAN)),
])
def test_liouville_table_covers_limit_plus_at_most_8(fresh_caches, first, limits):
    """_liouville_sieve(L) ends its table within one byte past L, both
    fresh and when it grows, at L >= twice the old entries, from a length
    that is not on a segment boundary; below that it doubles.  The entries
    past L are exact too: at L = p**2 - 1 for an odd prime p, the last byte
    holds p**2, which only the prime p sieves."""
    for limit in limits:
        fresh_caches.setattr(multfunc, "_liouville_table", None)
        if first is not None:
            old = 8 * len(multfunc._liouville_sieve(first))
            assert old % SEGMENT != 0 and limit >= 2 * old
        table = multfunc._liouville_sieve(limit)
        size = 8 * len(table)
        assert limit + 1 <= size <= limit + 8, limit
        tail = [(-1) ** sum(e for _, e in trial_factor(n)) if n else 0 for n in range(size - 8, size)]
        assert _unpack(table[-1:], size - 8).tolist() == tail, limit
    fresh_caches.setattr(multfunc, "_liouville_table", None)
    old = 8 * len(multfunc._liouville_sieve(1000))
    assert 8 * len(multfunc._liouville_sieve(old)) == 2 * old + 8  # covers 2 * old


def test_evaluate_many_reads_packed_table(fresh_caches, liouville_oracle):
    """Liouville values from the packed table, as int8 with 0 at 0, at both
    signs, across byte boundaries, at the table's last entry and one past it,
    which grows the table."""
    lam = liouville()
    size = 8 * len(multfunc._liouville_sieve(SEGMENT + 100))
    near = np.arange(-40, 41)
    points = np.concatenate([
        near,
        *(b + near for b in (8 * 12_345, SEGMENT, size - 41)),
        np.arange(7, size, 8 * 4099),
        [size - 1, 1 - size],
    ]).astype(np.int64)
    table = multfunc._liouville_table
    got = evaluate_many(lam, points)
    assert multfunc._liouville_table is table  # size - 1 is the last entry
    assert got.dtype == np.int8
    assert np.array_equal(got, liouville_oracle[np.abs(points)])
    assert np.array_equal(evaluate_many(lam, np.stack([points, -points])), np.stack([got, got]))
    beyond = np.array([[size, -size], [size + 1, 0]])
    got = evaluate_many(lam, beyond)
    assert 8 * len(multfunc._liouville_table) > size + 1
    assert got.dtype == np.int8 and np.array_equal(got, liouville_oracle[np.abs(beyond)])


def test_liouville_at_segment_boundaries(fresh_caches):
    table = _unpack(multfunc._liouville_sieve(SPAN))
    boundaries = range(SEGMENT, SPAN + 1, SEGMENT)
    points = {b + d for b in boundaries for d in (-1, 0, 1)}
    prime_squares = [p * p for p in sieve_primes(math.isqrt(SPAN) + 1000)]
    for b in boundaries:
        i = bisect.bisect_left(prime_squares, b)
        points |= {prime_squares[i - 1], prime_squares[i]}  # p**2 on both sides of b
        for q in (2**19, 3**12, 5**8, 7**7, 1009**2, 1021**2):
            points |= {b - b % q, b - b % q + q}  # multiples of q on both sides of b
        points |= {next(n for n in range(b, 0, -1) if is_prime(n)),
                   next(n for n in range(b, 2 * b) if is_prime(n))}
    for n in sorted(p for p in points if 0 < p <= SPAN):
        assert table[n] == (-1) ** sum(e for _, e in trial_factor(n)), n


def _window(start, length):
    """lambda on [start, start + length), read from the packed sieve of the
    enclosing window whose ends are multiples of 8."""
    lo = start - start % 8
    out = np.full((start + length - lo + 7) // 8, 0x5A, dtype=np.uint8)
    multfunc._liouville_segments(out, lo, sieve_primes(max(2, math.isqrt(lo + 8 * len(out) - 1))))
    return _unpack(out, lo)[start - lo : start - lo + length]


# 2**17 entries across 2**31, and around the square of 316241, the first
# prime above sqrt(10**11), which is then the last prime the window sieves.
@pytest.mark.parametrize("start", [2**31 - 2**16, 316241**2 - 2**16])
def test_liouville_window_far_from_zero(start):
    """A window far from 0 against exact division, and a sample of it, prime
    squares and powers of the wheel's primes included, against factorize."""
    length = 1 << 17
    got = _window(start, length)
    assert np.array_equal(got, _liouville_whole_array(start + length - 1, start))
    end = start + length
    sample = set(range(start, end, 997)) | {start, start + 1, end - 2, end - 1}
    sample |= {p * p for p in range(math.isqrt(start), math.isqrt(end - 1) + 1) if is_prime(p)}
    sample |= {n - n % q for q in (2**16, 3**10, 5**7, 7**6, 11**5, 13**4) for n in (start + q, end - 1)}
    sample = sorted(n for n in sample if start <= n < end)
    assert len(sample) > 100
    for n in sample:
        assert got[n - start] == (-1) ** sum(e for _, e in arith.factorize(n).factors), n


def _window_anchors():
    """Segment and wheel-period boundaries, powers of two, and p**2 + 1 for
    primes p around the segment ends' square roots: a window that ends
    there sieves p last."""
    points = set(range(0, SPAN + 1, SEGMENT)) | {1 << k for k in range(1, SPAN.bit_length())}
    points |= set(range(0, SPAN + 1, multfunc._WHEEL * 7))
    roots = [math.isqrt(b) for b in range(SEGMENT, SPAN + 1, SEGMENT)] + [math.isqrt(SPAN)]
    points |= {p * p + 1 for p in sieve_primes(math.isqrt(SPAN))
               if any(abs(p - r) < 40 for r in roots)}
    return sorted(p for p in points if p <= SPAN)


@settings(settings.get_profile("oracle"), max_examples=60)
@given(st.sampled_from(_window_anchors()), st.integers(0, 2 * SEGMENT), st.integers(0, 200))
def test_liouville_window_matches_whole_array(liouville_oracle, anchor, before, after):
    """Windows [anchor - before, anchor + after) that cross segment ends,
    wheel periods and powers of two."""
    start = max(0, anchor - before)
    end = min(SPAN + 1, anchor + after)
    if end <= start:
        end = start + 1
    assert np.array_equal(_window(start, end - start), liouville_oracle[start:end])


def test_concurrent_first_touch_of_both_caches(fresh_caches):
    """Threads build both tables that are made on first use at once: the
    Liouville table, grown to different limits, and the trial-division
    primes; they stream prime lists meanwhile.  Each result equals a fresh
    single-threaded build."""
    arith._trial_primes.cache_clear()
    limits = [(5_000, 2_500_000), (900_000, 200_000), (40_000, 1_500_000),
              (300_000, 700_000), (2_000, 3_300_000), (1_200_000, 50_000)]
    barrier = threading.Barrier(len(limits))
    results = {}

    def work(i, prime_limit, table_limit):
        barrier.wait(timeout=30)
        if i % 2:
            primes = sieve_primes(prime_limit)
            table = multfunc._liouville_sieve(table_limit)
        else:
            table = multfunc._liouville_sieve(table_limit)
            primes = sieve_primes(prime_limit)
        factors = arith.factorize(prime_limit * 65521 * 65537).factors
        results[i] = (primes, _unpack(table)[: table_limit + 1], factors)

    threads = [threading.Thread(target=work, args=(i, *lim)) for i, lim in enumerate(limits)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(len(limits)))
    for i, (prime_limit, table_limit) in enumerate(limits):
        fresh_caches.setattr(multfunc, "_liouville_table", None)
        assert results[i][0] == sieve_primes(prime_limit)
        assert np.array_equal(results[i][1], _unpack(multfunc._liouville_sieve(table_limit))[: table_limit + 1])
        assert list(results[i][2]) == trial_factor(prime_limit * 65521 * 65537)


def test_function_from_name_round_trip():
    for name in ("liouville", "principal", "char:4:1", "arch:0.7", "twisted:4:1:0.3",
                 "prime-patch:10:100:-1"):
        f = function_from_name(name)
        assert abs(evaluate(f, 7)) <= 1 + 1e-12
    with pytest.raises(DomainError):
        function_from_name("mystery")
    with pytest.raises(DomainError):
        function_from_name("char:4")


# --- additive functions ----------------------------------------------------------

def test_distance_profile_growth_shapes():
    from qpairs.multfunc import distance_profile, twisted

    lam = liouville()
    profile = distance_profile(lam, one(), [10, 100, 1000])
    values = [v for _, v in profile]
    assert values == sorted(values)  # partial sums only grow
    chi = dirichlet_characters(4)[1]
    flat = distance_profile(twisted(chi, 0.0), character_function(chi), [100, 10000])
    # ramified prime 2 contributes 1/2 once; nothing accumulates after
    assert flat[0][1] == pytest.approx(math.sqrt(0.5))
    assert flat[1][1] == pytest.approx(flat[0][1])


@pytest.mark.parametrize("form", [None, BinaryQuadraticForm(1, 0, 1), BinaryQuadraticForm(1, 0, -2)])
def test_distance_profile_equals_distance_at_each_cutoff(form):
    from qpairs.multfunc import distance_profile

    f, g = liouville(), archimedean(0.5)
    cutoffs = [5000, 10, 1, 777.5, 3000, 2]  # unsorted, repeated primes, below 2
    profile = distance_profile(f, g, cutoffs, form)
    assert [y for y, _ in profile] == [float(y) for y in cutoffs]
    for y, value in profile:
        # one exactly rounded pass must give the same bits as a pass per cutoff
        want = distance(f, g, 1, y) if form is None else distance_form(form, f, g, 1, y)
        assert value == want
    assert distance_profile(f, g, []) == []
    with pytest.raises(DomainError):
        distance_profile(f, g, [100, 0.5])


def test_additive_function():
    h = additive_from_prime_values({13: 1.0, 17: 0.5})
    assert h(13 * 17) == 1.5
    assert h(13 * 13) == 0.0  # vanishes on higher powers
    assert h(-13) == 1.0
    assert h(1) == 0
    with pytest.raises(DomainError):
        h(0)
