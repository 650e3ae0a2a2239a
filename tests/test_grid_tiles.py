"""Tiled stripe blocks against whole-stripe oracles.

The oracles below are the stripe blocks as they were before tiling: each
builds the temporaries of its whole (rows, n) stripe at once, and the Folner
probe makes one weighted pass per modulus.  Each then sums its values tile
by tile, max(1, _TILE_POINTS // n) rows at a time, and a weighted product
only on the columns from the first to the last with a nonzero weight in the
tile.  The tiled blocks must reproduce them bit for bit, at grid sizes that
give partial last tiles and stripes, and with small tile sizes that put many
tile boundaries in every stripe.  Also here: the big-integer grid path
against the int64 path and, past 2^63, against Python-int sums, and the
cos/sin evaluation of n^{it} against the complex exponential.
"""

import cmath
import math

import numpy as np
import pytest

from qpairs import _grid, experiments
from qpairs._grid import stripe_ranges, striped_complex_mean
from qpairs.errors import DomainError
from qpairs.averaging import (
    MuEstimate,
    WeightSpec,
    divisor_bound_probe,
    divisor_stat_exact,
    folner_enumerate,
    mu_estimate,
    trapezoid_bump,
    weight,
    weight_stability,
)
from qpairs.experiments import (
    LevelSetSpec,
    RegionSpec,
    concentration_lhs,
    concentration_setup,
    correlation_probe,
    level_set_search,
    nonnegativity_probe,
    pair_correlation,
    turan_kubilius_variance,
    weighted_pair_average,
)
from qpairs.multfunc import (
    TwistData,
    additive_from_prime_values,
    archimedean,
    character_function,
    dirichlet_characters,
    evaluate_many,
    liouville,
    one,
    twisted,
)
from qpairs.quadforms import BinaryQuadraticForm, LinearForm

P11 = BinaryQuadraticForm(1, 0, 1)
P12 = BinaryQuadraticForm(1, 0, 2)
PMN = BinaryQuadraticForm(0, 2, 0)
# a second pair whose weight vanishes on part of every stripe
MIXED = (BinaryQuadraticForm(1, 0, -2), BinaryQuadraticForm(0, 1, 0))
REGION = RegionSpec(((1, -1),))
TWO_PI = 2.0 * math.pi


# --- whole-stripe oracles -------------------------------------------------------

def _tile_rows(count, n):
    """Row slices of the tiles of a stripe of count rows, n columns."""
    step = max(1, _grid._TILE_POINTS // n)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _tile_sums(values, convert=float):
    """Each tile's np.sum over a whole stripe's (rows, n) values."""
    return tuple(convert(np.sum(values[rows])) for rows in _tile_rows(*values.shape))


def _weight_grid(spec, u, w):
    p1 = spec.form1.grid_values(u, w).astype(np.float64)
    p2 = spec.form2.grid_values(u, w).astype(np.float64)
    pos = (p1 > 0) & (p2 > 0)
    out = np.zeros(np.broadcast(p1, p2).shape)
    if pos.any():
        phi = (np.log(np.where(pos, p1, 1.0)) - np.log(np.where(pos, p2, 1.0))) / TWO_PI
        phi = phi - np.floor(phi + 0.5)
        out = np.where(pos, trapezoid_bump(phi, spec.delta), 0.0)
    return out


def _row_coords(q, a, b, ms, n, big):
    if big:
        u = np.array([q * int(m) + a for m in ms], dtype=object)[:, None]
        w = np.array([q * j + b for j in range(1, n + 1)], dtype=object)[None, :]
    else:
        u = (q * ms + a).astype(np.int64)[:, None]
        w = (q * np.arange(1, n + 1, dtype=np.int64) + b)[None, :]
    return u, w


def mu_whole(spec, n):
    cols = np.arange(1, n + 1, dtype=np.int64)[None, :]
    mids = (cols - 0.5) / n

    def block(ms):
        grid = _weight_grid(spec, ms[:, None], cols)
        riemann = _weight_grid(spec, ((ms - 0.5) / n)[:, None], mids)
        return _tile_sums(grid), _tile_sums(riemann)

    return MuEstimate(*striped_complex_mean(block, n))


def stability_whole(spec, a, b, q_max, n):
    cols = np.arange(1, n + 1, dtype=np.int64)

    def block(ms):
        base = _weight_grid(spec, ms[:, None], cols[None, :])
        worst = np.zeros_like(base)
        for q in range(1, q_max + 1):
            shifted = _weight_grid(spec, (q * ms + a)[:, None], (q * cols + b)[None, :])
            np.maximum(worst, np.abs(shifted - base), out=worst)
        return (_tile_sums(worst),)

    return striped_complex_mean(block, n)[0]


def divisor_whole(form, q, a, b, n, hit):
    w = (q * np.arange(1, n + 1, dtype=np.int64) + b)[None, :]

    def block(ms):
        return ([int(np.count_nonzero(hit(form.grid_values((q * ms + a)[:, None], w))))],)

    return striped_complex_mean(block, n)[0]


def exact_hit(p, p2):
    def hit(vals):
        mask = np.ones(vals.shape, dtype=bool)
        for prime in {p, p2}:
            mask &= (vals % prime == 0) & (vals % (prime * prime) != 0)
        return mask

    return hit


def concentration_block(setup):
    form, f, twist, q, a, b, c, k, n = (
        setup.form, setup.f, setup.twist, setup.q, setup.a, setup.b, setup.c, setup.k, setup.n
    )
    g_val = cmath.exp(experiments.concentration_exponent_form(form, f, twist, k, n))
    chi0 = twist.chi(form.value(a, b) // c)

    def block(ms):
        u, w = _row_coords(q, a, b, ms, n, False)
        vc = form.grid_values(u, w) // c
        fv = evaluate_many(f, vc)
        target = chi0 * g_val
        if twist.t != 0.0:
            u0, w0 = _row_coords(q, 0, 0, ms, n, False)
            base = np.abs(form.grid_values(u0, w0).astype(np.float64)) / c
            target = np.multiply(np.exp(1j * twist.t * np.log(base)), target)
        return (_tile_sums(np.abs(fv - target)),)

    return block


def concentration_whole(setup):
    return striped_complex_mean(concentration_block(setup), setup.n)[0]


def weighted_whole(f, form1, form2, delta, q, a, b, n):
    spec = WeightSpec(delta, form1, form2)
    cols = np.arange(1, n + 1, dtype=np.int64)[None, :]

    def block(ms):
        wgt = _weight_grid(spec, ms[:, None], cols)
        u, w = _row_coords(q, a, b, ms, n, False)
        f1 = evaluate_many(f, form1.grid_values(u, w)).astype(np.complex128)
        f2 = evaluate_many(f, form2.grid_values(u, w)).astype(np.complex128)
        prod = wgt * f1 * np.conj(f2)
        totals = []
        for rows in _tile_rows(*wgt.shape):
            nz = np.flatnonzero(wgt[rows].any(axis=0))
            if len(nz):
                span = np.ascontiguousarray(prod[rows, nz[0] : nz[-1] + 1])
                totals.append(complex(np.sum(span)))
        return _tile_sums(wgt), totals

    mu, total = striped_complex_mean(block, n)
    if mu <= 0:
        raise DomainError("the weight vanishes on this grid; nothing to normalize")
    return total / mu


def probe_whole(f, form1, form2, delta, k, n):
    values = [
        weighted_whole(f, form1, form2, delta, e.integer_value(), 1, 0, n).real
        for e in folner_enumerate(k)
    ]
    return float(np.mean(values))


def pair_whole(f, form1, form2, q, a, b, n):
    def block(ms):
        u, w = _row_coords(q, a, b, ms, n, False)
        f1 = evaluate_many(f, form1.grid_values(u, w)).astype(np.complex128)
        f2 = evaluate_many(f, form2.grid_values(u, w)).astype(np.complex128)
        return (_tile_sums(f1 * np.conj(f2), complex),)

    return striped_complex_mean(block, n)[0]


def correlation_whole(factors, g, form, region, q, a, b, n):
    def block(ms):
        u, w = _row_coords(q, a, b, ms, n, False)
        vals = region.mask(u, w).astype(np.complex128)
        for fj, lj in factors:
            vals = vals * evaluate_many(fj, lj.grid_values(u, w))
        vals = vals * evaluate_many(g, form.grid_values(u, w))
        return (_tile_sums(vals, complex),)

    return striped_complex_mean(block, n)[0]


def _outcome(fn):
    """repr of the result, or the error's type and message."""
    try:
        return repr(fn())
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


def _weighted_pairs(label, forms, n):
    """The averages built on the weight, for one pair of forms."""
    spec = WeightSpec(0.3, *forms)
    out = []
    if n >= 100:
        out.append((label + "mu_estimate", lambda: mu_estimate(spec, n), lambda: mu_whole(spec, n)))
    out += [
        (label + "weight_stability", lambda: weight_stability(spec, 1, 2, 5, n),
         lambda: stability_whole(spec, 1, 2, 5, n)),
        (label + "weighted_pair_average liouville",
         lambda: weighted_pair_average(liouville(), *forms, 0.3, 3, 2, 1, n),
         lambda: weighted_whole(liouville(), *forms, 0.3, 3, 2, 1, n)),
        (label + "weighted_pair_average arch",
         lambda: weighted_pair_average(archimedean(1.5), *forms, 0.3, 7, 3, 2, n),
         lambda: weighted_whole(archimedean(1.5), *forms, 0.3, 7, 3, 2, n)),
        (label + "nonnegativity_probe k=2",
         lambda: nonnegativity_probe(archimedean(2.0), *forms, 0.2, 2, n),
         lambda: probe_whole(archimedean(2.0), *forms, 0.2, 2, n)),
        # delta = 0.05, where f is evaluated on few columns: for (P12, PMN)
        # only row 1 has weight at n = 513 (one narrow span, every other tile
        # without weight) and none at n <= 300, where both sides raise
        (label + "weighted_pair_average liouville delta=0.05",
         lambda: weighted_pair_average(liouville(), *forms, 0.05, 3, 2, 1, n),
         lambda: weighted_whole(liouville(), *forms, 0.05, 3, 2, 1, n)),
        (label + "weighted_pair_average arch delta=0.05",
         lambda: weighted_pair_average(archimedean(1.5), *forms, 0.05, 7, 3, 2, n),
         lambda: weighted_whole(archimedean(1.5), *forms, 0.05, 7, 3, 2, n)),
        (label + "nonnegativity_probe k=2 delta=0.05",
         lambda: nonnegativity_probe(archimedean(2.0), *forms, 0.05, 2, n),
         lambda: probe_whole(archimedean(2.0), *forms, 0.05, 2, n)),
    ]
    return out


def _pairs(n):
    """(name, tiled run, whole-stripe oracle) for every tiled grid average."""
    chi = dirichlet_characters(4)[1]
    # built on use: at n = 1 no K satisfies 1 <= K < N, and both sides raise
    def setup():
        return concentration_setup(P11, liouville(), TwistData(0.5, chi), 12, 1, 0, 1, min(3, n - 1), n)

    factors = [(liouville(), LinearForm(1, 0)), (archimedean(1.0), LinearForm(1, 1))]
    out = []
    for label, forms in (("", (P12, PMN)), ("mixed ", MIXED)):
        out += _weighted_pairs(label, forms, n)
    out += [
        ("nonnegativity_probe k=3",
         lambda: nonnegativity_probe(twisted(chi, 0.5), P12, PMN, 0.2, 3, n),
         lambda: probe_whole(twisted(chi, 0.5), P12, PMN, 0.2, 3, n)),
        ("divisor_stat_exact", lambda: divisor_stat_exact(P11, 3, 1, 2, 5, 13, n),
         lambda: divisor_whole(P11, 3, 1, 2, n, exact_hit(5, 13))),
        ("divisor_bound_probe", lambda: divisor_bound_probe(P11, 1, 0, 0, 65, n)[0],
         lambda: divisor_whole(P11, 1, 0, 0, n, lambda v: v % 65 == 0)),
        ("concentration_lhs", lambda: concentration_lhs(setup()), lambda: concentration_whole(setup())),
        ("pair_correlation", lambda: pair_correlation(liouville(), P11, P12, 3, 2, 1, n),
         lambda: pair_whole(liouville(), P11, P12, 3, 2, 1, n)),
        ("pair_correlation twisted",
         lambda: pair_correlation(twisted(chi, 0.5), P11, P12, 3, 2, 1, n),
         lambda: pair_whole(twisted(chi, 0.5), P11, P12, 3, 2, 1, n)),
        ("correlation_probe", lambda: correlation_probe(factors, liouville(), P11, REGION, 1, 1, 2, n),
         lambda: correlation_whole(factors, liouville(), P11, REGION, 1, 1, 2, n)),
        ("correlation_probe q=3 arch",
         lambda: correlation_probe(factors, archimedean(0.7), P11, REGION, 3, 2, 1, n),
         lambda: correlation_whole(factors, archimedean(0.7), P11, REGION, 3, 2, 1, n)),
    ]
    return out


@pytest.mark.parametrize("tile_points", [None, 1000, 37])
@pytest.mark.parametrize("n", [1, 7, 129, 300, 513])
def test_tiles_match_whole_stripes(n, tile_points, monkeypatch):
    """== against the whole-stripe oracles.  The default tile gives 127 + 1
    rows per stripe at n = 513; 1000 points give 1 to 142 rows per tile, 37
    points 1 to 5."""
    if tile_points is not None:
        monkeypatch.setattr(_grid, "_TILE_POINTS", tile_points)
    for name, tiled, whole in _pairs(n):
        assert _outcome(tiled) == _outcome(whole), name


def test_twisted_concentration_matches_tile_sums(monkeypatch):
    """Each stripe's tile sums of |f - chi(P(a, b)) * |P|^{it} * exp(G)|
    equal the oracle's, which multiplies |P|^{it} by the constant, at the
    default tiles, whose 1 MB temporaries numpy would elide by swapping a
    product's operands, and at 1000-point tiles.  With a = 3 the constant
    chi(9) is not real, so a swapped operand moves bits."""
    chi = dirichlet_characters(7)[2]
    setup = concentration_setup(P11, twisted(chi, 0.5), TwistData(0.5, chi), 42, 3, 0, 1, 3, 300)
    assert chi(9).imag != 0.0
    run = _grid.striped_complex_mean

    def recording(block, n, threads=1):
        return run(lambda ms: sums.append(block(ms)) or sums[-1], n, threads)

    monkeypatch.setattr(experiments, "striped_complex_mean", recording)
    for tile_points in (_grid._TILE_POINTS, 1000):
        monkeypatch.setattr(_grid, "_TILE_POINTS", tile_points)
        sums = []
        concentration_lhs(setup)
        oracle = concentration_block(setup)
        assert sums == [oracle(np.arange(lo, hi)) for lo, hi in stripe_ranges(setup.n)], tile_points


def test_weights_readme_golden():
    """The digits README's `weights ... --n 1500` has printed since the
    striped reducer landed."""
    est = mu_estimate(WeightSpec(0.3, P12, PMN), 1500)
    assert (repr(est.grid), repr(est.riemann)) == ("0.808394813688819", "0.8083321798004348")


# --- big-integer grid path --------------------------------------------------------

def test_object_path_matches_int64(monkeypatch):
    """Below 2^62 the big-integer coordinates must give the int64 results."""
    n = 200
    chi = dirichlet_characters(4)[1]
    setup = concentration_setup(P11, liouville(), TwistData(0.5, chi), 12, 1, 0, 1, 3, n)
    factors = [(liouville(), LinearForm(1, 0)), (archimedean(1.0), LinearForm(1, 1))]
    tk_setup = concentration_setup(P11, one(), experiments.principal_twist(), 210, 1, 0, 1, 10, n)
    h = additive_from_prime_values({13: 1, 17: 0.5j, 29: -1})
    runs = {
        "mu_estimate": lambda: mu_estimate(WeightSpec(0.3, P12, PMN), n),
        "weight_stability": lambda: weight_stability(WeightSpec(0.3, *MIXED), 1, 2, 5, n),
        "turan_kubilius_variance": lambda: turan_kubilius_variance(tk_setup, h),
        "divisor_stat_exact": lambda: divisor_stat_exact(P11, 12, 1, 2, 5, 13, n),
        "divisor_bound_probe": lambda: divisor_bound_probe(P12, 3, 2, 1, 33, n),
        "weighted liouville": lambda: weighted_pair_average(liouville(), P12, PMN, 0.3, 3, 2, 1, n),
        "weighted arch": lambda: weighted_pair_average(archimedean(1.5), P12, PMN, 0.3, 7, 3, 2, n),
        "pair_correlation": lambda: pair_correlation(liouville(), P11, P12, 3, 2, 1, n),
        "correlation_probe": lambda: correlation_probe(
            factors, liouville(), P11, REGION, 5, 1, 2, n),
        "concentration_lhs": lambda: concentration_lhs(setup),
    }
    fast = {name: repr(run()) for name, run in runs.items()}
    monkeypatch.setattr(_grid, "needs_bigint", lambda *args: True)
    for name, run in runs.items():
        assert repr(run()) == fast[name], name


def test_weights_past_int64_match_python_ints():
    """P1 = 10^15 m^2 + n^2 passes 2^63 on this grid: the mean weight and the
    weighted average equal sums over Python-int values (scalar weight, f by
    cmath), which int64 weights missed by wrapping."""
    p1, n, t = BinaryQuadraticForm(10**15, 0, 1), 120, 0.7
    spec = WeightSpec(0.3, p1, PMN)
    points = [(m, k) for m in range(1, n + 1) for k in range(1, n + 1)]
    weights = [weight(spec, m, k) for m, k in points]
    # f = arch:t on the lattice (m + 1, k): Q = 1, a = 1, b = 0
    phases = [t * (math.log(p1.value(m + 1, k)) - math.log(PMN.value(m + 1, k))) for m, k in points]
    terms = [w * cmath.exp(1j * phase) for w, phase in zip(weights, phases)]
    mu = math.fsum(weights) / n**2
    want = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)) / n**2 / mu
    assert mu_estimate(spec, n).grid == pytest.approx(mu, rel=1e-12)
    assert weighted_pair_average(archimedean(t), p1, PMN, 0.3, 1, 1, 0, n) == pytest.approx(
        want, abs=1e-12)


def test_linear_forms_past_int64_match_python_ints():
    """A linear factor or a half-plane with a coefficient near 2^62 passes
    2^63 on the grid: both count in the lattice's bound, so each
    correlation equals its mean over Python-int values."""
    n, big = 100, 4 * 10**18

    def mean_of_arch(scale):  # E exp(i ln(scale * m)) over [n]^2 (Q = 1, a = b = 0)
        terms = [cmath.exp(1j * math.log(scale * m)) for m in range(1, n + 1)]
        return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)) / n

    got = correlation_probe([(archimedean(1.0), LinearForm(big, 0))], one(), P11, RegionSpec(),
                            1, 0, 0, n)
    assert got == pytest.approx(mean_of_arch(big), abs=1e-12)
    # big * x - y >= 0 holds on the whole grid
    got = correlation_probe([(archimedean(1.0), LinearForm(1, 0))], one(), P11,
                            RegionSpec(((big, -1),)), 1, 0, 0, n)
    assert got == pytest.approx(mean_of_arch(1), abs=1e-12)


# --- int8 Liouville values ----------------------------------------------------------

def _complex_evaluate_many(f, values):
    """evaluate_many with Liouville values cast to complex128, as they were
    returned before they came back as the table's int8 entries."""
    return evaluate_many(f, values).astype(np.complex128)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 129])
def test_int8_liouville_matches_complex_evaluation(n, monkeypatch):
    """Every caller of evaluate_many gives the same repr, signed zeros
    included, whether λ arrives as int8 or as complex128: a form with only
    negative values, Q > 1 with a, b != 0, and arcs from 1e-9 (0 as
    float16, the phase dtype numpy gives int8) to nearly pi."""
    lam = liouville()
    neg = BinaryQuadraticForm(-1, 0, -1)
    chi = dirichlet_characters(4)[1]
    # built on use: at n = 1 no K satisfies 1 <= K < N, and both runs raise
    def setup():
        return concentration_setup(neg, lam, TwistData(0.5, chi), 12, 2, 1, 1, min(3, n - 1), n)

    factors = [(lam, LinearForm(1, 0)), (lam, LinearForm(1, -2))]
    runs = {
        "weighted sweep": lambda: weighted_pair_average(lam, P12, PMN, 0.3, 1, 1, 0, n),
        "weighted q=3": lambda: weighted_pair_average(lam, P12, PMN, 0.3, 3, 2, 1, n),
        "weighted mixed": lambda: weighted_pair_average(lam, *MIXED, 0.3, 5, -2, 3, n),
        "weighted negative": lambda: weighted_pair_average(lam, neg, PMN, 0.3, 3, 2, 1, n),
        "probe": lambda: nonnegativity_probe(lam, P12, PMN, 0.3, 1, n),
        "pair negative": lambda: pair_correlation(lam, neg, P12, 3, 2, 1, n),
        "pair": lambda: pair_correlation(lam, P11, P12, 1, 1, 0, n),
        "correlation": lambda: correlation_probe(factors, lam, neg, REGION, 3, 2, -1, n),
        "concentration": lambda: concentration_lhs(setup()),
        "level set": lambda: level_set_search(LevelSetSpec(lam, 0.3), P11, P12, 3, n),
        "level set tiny arc": lambda: level_set_search(LevelSetSpec(lam, 1e-9), P11, P12, 3, n),
        "level set near pi": lambda: level_set_search(LevelSetSpec(lam, 3.1415), P11, P12, 3, n),
    }
    got = {name: _outcome(run) for name, run in runs.items()}
    monkeypatch.setattr(experiments, "evaluate_many", _complex_evaluate_many)
    for name, run in runs.items():
        assert got[name] == _outcome(run), name


# --- n^{it} -----------------------------------------------------------------------

def _exp_power(values, t):
    absv = np.abs(values).reshape(-1)
    safe = np.where(absv == 0, 1, absv).astype(np.float64)
    return np.exp(1j * t * np.log(safe)).reshape(np.shape(values))


def test_unit_power_matches_complex_exp():
    """cos/sin of t ln|x| carry the bits of exp(1j t ln|x|), signed zeros
    included, for arch and for twisted characters, on int64 and on Python
    ints.  The identity rests on the platform's libm, so it is checked."""
    rng = np.random.default_rng(7)
    ints = np.concatenate([
        np.arange(-3000, 3000, dtype=np.int64).reshape(60, 100).ravel(),
        rng.integers(1, 2**62, 20000, dtype=np.int64),
    ]).reshape(-1, 100)
    big = np.array([3**k + j for k in range(40, 60) for j in range(5)], dtype=object)
    chi = dirichlet_characters(5)[1]
    for values in (ints, big):
        zero = np.abs(values) == 0
        for t in (2.0, 1.5, -1.5, 0.7, 0.0, -3.25, 1e-3):
            want = np.where(zero, 0j, _exp_power(values, t))
            got = evaluate_many(archimedean(t), values)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), t
            want = np.where(zero, 0j, evaluate_many(character_function(chi), values) * _exp_power(values, t))
            got = evaluate_many(twisted(chi, t), values)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), t
