import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpairs._grid import stripe_ranges
from qpairs.arith import sieve_primes
from qpairs.averaging import WeightSpec, divisor_stat_exact, mu_estimate, weight_stability
from qpairs.errors import DomainError, ResourceError
from qpairs.experiments import (
    FULL_QUADRANT,
    LevelSetSpec,
    RegionSpec,
    concentration_exponent,
    concentration_exponent_form,
    concentration_lhs,
    concentration_setup,
    correlation_probe,
    level_set_search,
    nonnegativity_probe,
    pair_correlation,
    predicted_additive_mean,
    principal_twist,
    turan_kubilius_variance,
    weighted_pair_average,
)
from qpairs.multfunc import (
    MultiplicativeFunction,
    TwistData,
    additive_from_prime_values,
    archimedean,
    character_extended,
    character_function,
    dirichlet_characters,
    distance_additive,
    distance_form,
    liouville,
    one,
    prime_patch,
    twisted,
)
from qpairs.quadforms import (
    BinaryQuadraticForm,
    LinearForm,
    _roots_mod_prime,
    _roots_mod_prime_power,
    form_has_root,
    local_root_count,
)

P11 = BinaryQuadraticForm(1, 0, 1)
P12 = BinaryQuadraticForm(1, 0, 2)
PMN = BinaryQuadraticForm(0, 2, 0)


# --- prime sums -----------------------------------------------------------------

def test_concentration_exponent_form_examples():
    lam = liouville()
    tw = principal_twist()
    # only p = 5 lands in (2, 10] with a root: omega = 2, lam(5) = -1
    val = concentration_exponent_form(P11, lam, tw, 2, 10)
    assert val == pytest.approx(2 / 5 * (-2))
    # matching twist kills every term
    chi = dirichlet_characters(4)[1]
    f = character_extended(chi, {2: 1.0})
    assert concentration_exponent_form(P11, f, TwistData(0.0, chi), 4, 300) == 0j
    assert concentration_exponent_form(P11, lam, tw, 10, 10) == 0j


def test_concentration_exponent_real_part_nonpositive():
    rng = random.Random(31)
    tw = principal_twist()
    for _ in range(25):
        values = {p: cmath.exp(2j * math.pi * rng.random()) for p in sieve_primes(200)}
        f = MultiplicativeFunction(
            description="rand",
            prime_power_rule=lambda p, k, v=values: v.get(p, 1.0) ** k,
        )
        assert concentration_exponent_form(P11, f, tw, 3, 200).real <= 1e-15


def test_concentration_exponent_linear():
    lam = liouville()
    val = concentration_exponent(lam, principal_twist(), 2, 10)
    assert val == pytest.approx(-2 * (1 / 3 + 1 / 5 + 1 / 7))


def test_prime_window_sums_match_direct_fsum():
    """Each prime-window sum equals a direct exactly rounded sum over the
    sieved primes in (k, n], with its own term written out."""
    chi = dirichlet_characters(5)[1]
    f = twisted(chi, 0.7)
    twist = TwistData(1.3, chi)
    k, n = 7, 3000
    window = [p for p in sieve_primes(n) if k < p]

    def twist_factor(p):
        return chi(p).conjugate() * cmath.exp(-1j * twist.t * math.log(p))

    def fsum_c(terms):
        terms = list(terms)
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))

    for form in (P11, BinaryQuadraticForm(1, 0, -4)):  # irreducible, reducible
        direct = fsum_c(
            local_root_count(form, p) / p * (f.at_prime(p) * twist_factor(p) - 1.0)
            for p in window
            if local_root_count(form, p)
        )
        assert concentration_exponent_form(form, f, twist, k, n) == direct
    direct = fsum_c(1.0 / p * (f.at_prime(p) * twist_factor(p) - 1.0) for p in window)
    assert concentration_exponent(f, twist, k, n) == direct
    h = additive_from_prime_values({p: cmath.exp(1j * p) for p in window[::3]})
    direct = fsum_c(2.0 / p * h.at_prime(p) for p in window)
    assert predicted_additive_mean(h, k, n) == direct
    assert distance_additive(h, k, n) == math.sqrt(
        math.fsum(abs(h.at_prime(p)) ** 2 / p for p in window)
    )


def test_predicted_additive_mean():
    h = additive_from_prime_values({13: 1, 17: 1, 29: 1, 37: 1, 41: 1})
    direct = 2 * (1 / 13 + 1 / 17 + 1 / 29 + 1 / 37 + 1 / 41)
    assert predicted_additive_mean(h, 10, 50) == pytest.approx(direct)
    assert abs(direct - 0.44329) < 1e-4


# --- concentration ---------------------------------------------------------------

def test_concentration_setup_validation():
    chi = dirichlet_characters(4)[1]
    with pytest.raises(DomainError):
        concentration_setup(P11, one(), TwistData(0.0, chi), 5, 1, 0, 1, 4, 100)
    with pytest.raises(DomainError):
        concentration_setup(P11, one(), principal_twist(), {2: 4, 3: 4}, 1, 0, 5, 4, 100)


def test_concentration_setup_k_edges():
    """K >= 1; K = 1 takes the empty product of primes, so Q = 1 is allowed.
    No K fits 1 <= K < N at N = 1."""
    setup = concentration_setup(P11, one(), principal_twist(), 1, 1, 0, 1, 1, 100)
    assert concentration_lhs(setup) == 0.0
    for k, n in ((0, 100), (-3, 100), (0, 1), (1, 1)):
        with pytest.raises(DomainError):
            concentration_setup(P11, one(), principal_twist(), 210, 1, 0, 1, k, n)


def test_concentration_exact_zero_character_config():
    chi = dirichlet_characters(4)[1]
    f = character_extended(chi, {2: 1.0})
    setup = concentration_setup(P11, f, TwistData(0.0, chi), {2: 4, 3: 4}, 1, 0, 1, 4, 500)
    assert concentration_lhs(setup) <= 1e-12


def test_concentration_constant_one_exact():
    setup = concentration_setup(
        P11, one(), principal_twist(), {2: 4, 3: 4}, 1, 0, 1, 4, 400
    )
    assert concentration_lhs(setup) == 0.0


def test_concentration_monitored_patch():
    # f = -1 on primes in (10, 100], else 1; monitored against the
    # distance-sum bound with a fitted constant of 10
    f = prime_patch(10, 100, -1.0)
    n = 2000
    setup = concentration_setup(P11, f, principal_twist(), 2 * 3 * 5 * 7, 1, 0, 1, 10, n)
    lhs = concentration_lhs(setup)
    d1 = distance_form(P11, f, one(), 10, math.isqrt(n))
    d2 = distance_form(P11, f, one(), math.isqrt(n), min(100 * n * n, 10**6))
    bound = 10 * (d1 + d1**2) + 10 * d2 + 10 / math.sqrt(10)
    assert lhs <= bound


def _scalar_concentration_lhs(form, f, twist, q, a, b, c, k, n):
    """concentration_lhs by a loop over the grid: the comparison value at each
    point is chi(P_c(a, b)) * exp(G) * |P_c(Qm, Qn)|^{it}, with 0^{it} = 1."""
    target0 = twist.chi(form.value(a, b) // c) * cmath.exp(concentration_exponent_form(form, f, twist, k, n))
    devs = []
    for m in range(1, n + 1):
        for j in range(1, n + 1):
            base = abs(form.value(q * m, q * j)) / c
            power = cmath.exp(1j * twist.t * math.log(base)) if base else 1.0
            devs.append(abs(f(form.value(q * m + a, q * j + b) // c) - power * target0))
    return math.fsum(devs) / (n * n)


@pytest.mark.parametrize("form, f, chi, t, q, k, n", [
    # P(Qm, Qn) = 0 on the diagonal, and for [1,1,-2] at m = n as well
    (BinaryQuadraticForm(1, 0, -1), archimedean(0.5), (1, 0), 0.5, 2, 1, 50),
    (BinaryQuadraticForm(1, 1, -2), twisted(dirichlet_characters(4)[1], 0.5), (4, 1), 0.5, 12, 3, 40),
    (BinaryQuadraticForm(1, 0, -4), liouville(), (1, 0), -1.3, 6, 3, 30),
    (P11, twisted(dirichlet_characters(4)[1], 0.5), (4, 1), -1.7, 12, 3, 30),
])
def test_concentration_lhs_matches_scalar_loop(form, f, chi, t, q, k, n):
    """Finite, with 0^{it} = 1 where P(Qm, Qn) vanishes, and equal to the
    loop up to the order of summation."""
    twist = TwistData(t, dirichlet_characters(chi[0])[chi[1]])
    lhs = concentration_lhs(concentration_setup(form, f, twist, q, 1, 0, 1, k, n))
    assert math.isfinite(lhs)
    assert lhs == pytest.approx(_scalar_concentration_lhs(form, f, twist, q, 1, 0, 1, k, n), rel=1e-12)


# --- Turan-Kubilius -------------------------------------------------------------------

def test_tk_variance_zero_function():
    setup = concentration_setup(
        P11, one(), principal_twist(), 2 * 3 * 5 * 7, 1, 0, 1, 10, 300
    )
    h = additive_from_prime_values({})
    assert turan_kubilius_variance(setup, h).variance == 0.0


def test_tk_variance_monitored():
    setup = concentration_setup(
        P11, one(), principal_twist(), 2 * 3 * 5 * 7, 1, 0, 1, 10, 600
    )
    h = additive_from_prime_values({p: 1 for p in (13, 17)})
    rep = turan_kubilius_variance(setup, h)
    assert rep.variance <= 10 * (rep.dist_sq_low + rep.dist_sq_high + rep.k_term)


def test_tk_variance_condition_checks():
    setup = concentration_setup(
        P11, one(), principal_twist(), 2 * 3 * 5 * 7, 1, 0, 1, 10, 300
    )
    with pytest.raises(DomainError):
        turan_kubilius_variance(setup, additive_from_prime_values({7: 1}))  # p <= K
    with pytest.raises(DomainError):
        turan_kubilius_variance(setup, additive_from_prime_values({19: 1}))  # no root


def test_tk_variance_matches_direct_factorization():
    # small grid, checked point by point against factorization of the values
    q = 2 * 3 * 5 * 7
    n = 60
    setup = concentration_setup(P11, one(), principal_twist(), q, 1, 0, 1, 10, n)
    support = {13: 1.0, 17: 1.0, 29: 1.0}
    h = additive_from_prime_values(support)
    rep = turan_kubilius_variance(setup, h)
    mean = predicted_additive_mean(h, 10, n)
    total = 0.0
    for m in range(1, n + 1):
        for nn in range(1, n + 1):
            v = P11.value(q * m + 1, q * nn)
            hv = sum(
                hp for p, hp in support.items() if v % p == 0 and v % (p * p) != 0
            )
            total += abs(hv - mean) ** 2
    assert rep.variance == pytest.approx(total / (n * n), rel=1e-12)


def test_tk_variance_large_support_primes():
    """Support primes above 1450, where (r * w - a) * Q^-1 mod p^2 exceeds
    int64 unless r * w - a is reduced first, against hit counts of the
    values themselves."""
    q, n = 210, 2800
    support = {2549: 1.0, 2753: -0.5}
    setup = concentration_setup(P11, one(), principal_twist(), q, 1, 0, 1, 10, n)
    h = additive_from_prime_values(support)
    mean = predicted_additive_mean(h, 10, n)
    w = q * np.arange(1, n + 1, dtype=np.int64)[None, :]
    total = 0.0
    for lo, hi in stripe_ranges(n):
        v = P11.grid_values((q * np.arange(lo, hi, dtype=np.int64) + 1)[:, None], w)
        hv = sum(hp * ((v % p == 0) & (v % (p * p) != 0)) for p, hp in support.items())
        total += float(np.sum(np.abs(hv - mean) ** 2))
    assert turan_kubilius_variance(setup, h).variance == pytest.approx(total / (n * n), rel=1e-12)


def tk_dense_deviations(setup, h):
    """|acc - mean|^2 over the dense n x n accumulator that the Turan-Kubilius
    variance was computed from before it was striped: each (p, p^e, root)
    class in turn, written column by column."""
    form, q, a, b, n = setup.form, setup.q, setup.a, setup.b, setup.n
    acc = np.zeros((n, n), dtype=np.complex128)
    ws = q * np.arange(1, n + 1, dtype=np.int64) + b
    for p in h.table.keys.tolist():
        hp = h.at_prime(p)
        if hp == 0:
            continue
        for modulus, sign in ((p, 1.0), (p * p, -1.0)):
            roots = _roots_mod_prime(form, p) if modulus == p else _roots_mod_prime_power(form, p, 2)
            qinv = pow(q, -1, modulus)
            wmod = ws % modulus
            for r in roots:
                m0 = ((r * wmod - a) * qinv) % modulus
                for j in range(n):
                    if ws[j] % p == 0:
                        continue
                    start = int(m0[j]) or modulus
                    if start <= n:
                        acc[start - 1 :: modulus, j] += sign * hp
    return np.abs(acc - predicted_additive_mean(h, setup.k, n)) ** 2


# forms with two roots mod every odd prime, with roots mod p = 1 (4), with
# roots mod p = 1, 3 (8), and with a middle coefficient
TK_FORMS = (BinaryQuadraticForm(1, 0, -1), P11, P12, BinaryQuadraticForm(1, 1, 1))
H_VALUES = st.one_of(
    st.floats(-1.0, 1.0).map(complex),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)


@settings(settings.get_profile("oracle"), max_examples=200)
@given(
    st.sampled_from(TK_FORMS),
    st.sampled_from((1, 2, 6, 7, 12, 35, 210)),
    st.integers(1, 3),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.sampled_from((2, 127, 128, 129, 300)),
    st.data(),
)
def test_tk_variance_matches_dense_accumulator(form, q, k, a, b, n, data):
    """The striped sieve gives the dense accumulator's |acc - mean|^2 summed
    per stripe and merged in stripe order, ==.  Its np.mean, which the
    variance was before, sums in another pairwise tree: the two agree to
    within 2 ulp on 400 random configurations, and neither is always within
    1 ulp of the exact mean (at [1,0,1], Q = 1, K = 1, a = b = 0, n = 300,
    h(17) = 1 the stripe merge is exact and np.mean is 2 ulp below), so the
    bound here is 8 ulp.  Support primes are drawn below and above 128, the
    stripe height, for p and for p^2 (p = 3, 5, 11 have p^2 < 128)."""
    if k >= n or q % math.prod(sieve_primes(k) if k > 1 else ()):
        k = 1
    allowed = [
        p for p in sieve_primes(n)
        if p > k and q % p and (2 * form.alpha * form.discriminant) % p and form_has_root(form, p)
    ]
    primes = data.draw(st.lists(st.sampled_from(allowed), max_size=4, unique=True)) if allowed else []
    h = additive_from_prime_values({p: data.draw(H_VALUES) for p in primes})
    setup = concentration_setup(form, one(), principal_twist(), q, a, b, 1, k, n)
    dev = tk_dense_deviations(setup, h)
    stripes = [float(np.sum(dev[lo - 1 : hi - 1])) for lo, hi in stripe_ranges(n)]
    variance = turan_kubilius_variance(setup, h).variance
    assert variance == math.fsum(stripes) / (n * n)
    mean = float(np.mean(dev))
    assert abs(variance - mean) <= 8 * math.ulp(mean)


# --- weighted pair averages ---------------------------------------------------------

def test_weighted_pair_average_constant_is_one():
    assert weighted_pair_average(one(), P12, PMN, 0.3, 1, 1, 0, 400) == 1.0


def test_weighted_pair_average_archimedean_pinning():
    # the pair must attain ratio 1 so the trapezoid's central shell carries
    # interior mass at this grid size; m^2+n^2 against 2mn does (AM-GM tight)
    val = weighted_pair_average(archimedean(2.0), P11, PMN, 0.1, 1, 1, 0, 2000)
    assert abs(val - 1) <= 0.5
    tighter = weighted_pair_average(archimedean(2.0), P11, PMN, 0.05, 1, 1, 0, 2000)
    assert abs(tighter - 1) <= abs(val - 1) + 0.05  # shrinks with delta


def test_weighted_pair_average_conjugation_symmetry():
    chi = dirichlet_characters(5)[1]
    f = character_function(chi)
    f_conj = character_function(dirichlet_characters(5)[3])
    assert max(abs(chi(a).conjugate() - dirichlet_characters(5)[3](a)) for a in range(5)) < 1e-12
    v = weighted_pair_average(f, P12, PMN, 0.3, 1, 1, 0, 300)
    v_conj = weighted_pair_average(f_conj, P12, PMN, 0.3, 1, 1, 0, 300)
    assert abs(v - v_conj.conjugate()) < 1e-12


def test_weighted_pair_average_liouville_small():
    val = weighted_pair_average(liouville(), P12, PMN, 0.3, 1, 1, 0, 500)
    assert abs(val) < 0.2


def test_pair_correlation_unweighted():
    assert pair_correlation(one(), P12, PMN, 1, 1, 0, 150) == 1.0
    # real-valued f gives a real correlation; tiny grid checked directly
    val = pair_correlation(liouville(), P11, P12, 1, 0, 0, 40)
    lam = liouville()
    direct = sum(
        (lam(P11.value(m, n)) * lam(P12.value(m, n))).real
        for m in range(1, 41)
        for n in range(1, 41)
    ) / 1600
    assert val.imag == 0.0
    assert val.real == pytest.approx(direct, abs=1e-12)


def test_pair_correlation_of_function_without_hint():
    """A library-built f with no evaluation hint runs through the grid
    averages, factorizing value by value, and the hint-less Liouville
    function gives the built-in's correlation (n = 130: two stripes)."""
    lam = MultiplicativeFunction("no hint", lambda p, k: (-1.0) ** k)
    assert pair_correlation(lam, P11, P12, 3, 2, 1, 130) == pair_correlation(
        liouville(), P11, P12, 3, 2, 1, 130)


def test_thread_determinism():
    """Every striped grid average prints the same bytes on 1, 2 and 4 threads
    (n = 300 gives three stripes, n = 513 five)."""
    chi = dirichlet_characters(4)[1]
    setup = concentration_setup(P11, liouville(), TwistData(0.5, chi), 12, 1, 0, 1, 3, 300)
    tk_setup = concentration_setup(P11, one(), principal_twist(), 6, 1, 2, 1, 3, 300)
    region = RegionSpec(((1, -1),))
    spec = WeightSpec(0.3, P12, PMN)
    runs = {
        "mu_estimate": lambda t: mu_estimate(spec, 300, threads=t),
        "weight_stability": lambda t: weight_stability(spec, 1, 0, 5, 300, threads=t),
        "divisor_stat_exact": lambda t: divisor_stat_exact(P11, 3, 1, 2, 5, 13, 300, threads=t),
        "weighted_pair_average": lambda t: weighted_pair_average(
            liouville(), P12, PMN, 0.3, 1, 1, 0, 300, threads=t),
        "nonnegativity_probe": lambda t: nonnegativity_probe(
            archimedean(2.0), P12, PMN, 0.2, 2, 300, threads=t),
        "nonnegativity_probe k=3": lambda t: nonnegativity_probe(
            archimedean(2.0), P12, PMN, 0.2, 3, 300, threads=t),
        # weight on one narrow column span of the first stripe only
        "nonnegativity_probe sparse": lambda t: nonnegativity_probe(
            archimedean(2.0), P12, PMN, 0.05, 2, 513, threads=t),
        "pair_correlation": lambda t: pair_correlation(
            liouville(), P11, P12, 1, 1, 0, 300, threads=t),
        "correlation_probe": lambda t: correlation_probe(
            [(liouville(), LinearForm(1, 0)), (archimedean(1.0), LinearForm(1, 1))],
            liouville(), P11, region, 1, 1, 2, 300, threads=t),
        "concentration_lhs": lambda t: concentration_lhs(setup, threads=t),
        "turan_kubilius_variance": lambda t: turan_kubilius_variance(
            tk_setup, additive_from_prime_values({5: 1, 13: 0.5j, 17: -0.75}), threads=t),
    }
    for name, run in runs.items():
        base = repr(run(1))
        for threads in (2, 4):
            assert repr(run(threads)) == base, (name, threads)


def test_grid_averages_allocate_no_dense_grid():
    """At n = 1000 each grid average peaks below one n x n complex128 array
    under tracemalloc (f is arch or principal, so no value table is built):
    only stripes, tiles and per-column data are allocated."""
    n = 1000
    limit = n * n * np.dtype(np.complex128).itemsize
    arch = archimedean(1.0)
    tk_setup = concentration_setup(P11, one(), principal_twist(), 210, 1, 0, 1, 10, n)
    runs = {
        "turan_kubilius_variance": lambda: turan_kubilius_variance(
            tk_setup, additive_from_prime_values({p: 1 for p in (13, 17, 29, 37, 41)})),
        "weighted_pair_average": lambda: weighted_pair_average(arch, P12, PMN, 0.3, 3, 2, 1, n),
        "pair_correlation": lambda: pair_correlation(arch, P11, P12, 3, 2, 1, n),
        "concentration_lhs": lambda: concentration_lhs(
            concentration_setup(P11, arch, principal_twist(), 6, 1, 0, 1, 3, n)),
        "correlation_probe": lambda: correlation_probe(
            [(arch, LinearForm(1, 0)), (one(), LinearForm(1, 1))], one(), P11,
            RegionSpec(((1, -1),)), 1, 1, 2, n),
        "mu_estimate": lambda: mu_estimate(WeightSpec(0.3, P12, PMN), n),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (name, peak)


# --- probes -----------------------------------------------------------------------

def test_nonnegativity_probe_constant():
    assert nonnegativity_probe(one(), P12, PMN, 0.3, 2, 200) == 1.0


def test_nonnegativity_probe_archimedean():
    val = nonnegativity_probe(archimedean(2.0), P12, PMN, 0.05, 2, 2000)
    assert val >= -0.1


def test_nonnegativity_probe_character_diagnostic():
    chi = dirichlet_characters(4)[1]
    f = character_extended(chi, {2: 1.0})
    val = nonnegativity_probe(f, P12, PMN, 0.2, 2, 300)
    assert math.isfinite(val)  # reported, no sign asserted at finite K


def test_nonnegativity_probe_cap():
    with pytest.raises(ResourceError):
        nonnegativity_probe(one(), P12, PMN, 0.3, 5, 100)


def test_correlation_probe_mean_of_liouville():
    val = correlation_probe(
        [(liouville(), LinearForm(1, 0))], one(), P11, FULL_QUADRANT, 1, 0, 0, 3000
    )
    assert abs(val) <= 0.02


def test_correlation_probe_all_ones_exact():
    val = correlation_probe(
        [(one(), LinearForm(1, 0))], one(), P11, FULL_QUADRANT, 1, 0, 0, 150
    )
    assert val == 1.0


def test_correlation_probe_validation():
    with pytest.raises(DomainError):
        correlation_probe(
            [(one(), LinearForm(0, 0))], one(), P11, FULL_QUADRANT, 1, 0, 0, 50
        )
    with pytest.raises(DomainError):
        correlation_probe(
            [(one(), LinearForm(1, 0)), (one(), LinearForm(2, 0))],
            one(), P11, FULL_QUADRANT, 1, 0, 0, 50,
        )


def test_region_mask():
    region = RegionSpec(((1, -1),))  # x >= y
    x = np.array([[3, 1]])
    y = np.array([[2, 2]])
    assert region.mask(x, y).tolist() == [[True, False]]
    # scale invariance
    assert region.mask(30, 20) and not region.mask(10, 20)


# --- level sets ----------------------------------------------------------------------

P1B = BinaryQuadraticForm(1, -2, -1)
P2B = BinaryQuadraticForm(1, 2, -1)


def test_level_set_constant_function():
    hit = level_set_search(LevelSetSpec(one(), 0.3), P1B, P2B, 10, 10)
    assert hit is not None
    assert hit.k == 1
    assert (hit.m, hit.n) == (3, 1)  # first pair with both values positive


def test_level_set_archimedean():
    spec = LevelSetSpec(archimedean(0.7), 0.3)
    hit = level_set_search(spec, P1B, P2B, 500, 60)
    assert hit is not None
    # independent verification by direct evaluation
    for v in (hit.k * hit.value1, hit.k * hit.value2):
        assert abs(cmath.phase(cmath.exp(0.7j * math.log(v)))) < 0.3
    assert hit.surrogate.real > 0


def test_level_set_character():
    chi3 = dirichlet_characters(3)[1]
    hit = level_set_search(LevelSetSpec(character_function(chi3), 0.5), P1B, P2B, 50, 30)
    assert hit is not None
    assert (hit.k * hit.value1) % 3 == 1
    assert (hit.k * hit.value2) % 3 == 1


def test_level_set_fourier_coefficients_reconstruct():
    spec = LevelSetSpec(one(), 0.8, l_max=300)
    coeffs = spec.fourier_coefficients()
    delta = 0.8 / (2 * math.pi)
    for phi, expected in ((0.0, 1.0), (delta / 2, 1.0), (0.75 * delta, 0.5), (2 * delta, 0.0)):
        val = sum(c * cmath.exp(2j * math.pi * l * phi) for l, c in coeffs.items())
        assert abs(val.real - expected) < 0.02


def test_level_set_not_found():
    # arc too small for a character that never lands strictly inside
    chi = dirichlet_characters(4)[1]
    f = character_function(chi)
    spec = LevelSetSpec(f, 0.1)
    hit = level_set_search(spec, BinaryQuadraticForm(1, 0, 1), BinaryQuadraticForm(2, 0, 2), 3, 3)
    # m^2+n^2 even or chi value -1 sometimes; whatever comes back must verify
    if hit is not None:
        assert abs(cmath.phase(hit.f_at_k1)) < 0.1
