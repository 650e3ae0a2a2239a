import cmath
import math

import numpy as np
import pytest

from qpairs.averaging import (
    WeightSpec,
    divisor_bound_probe,
    divisor_stat_exact,
    divisor_stat_predicted,
    folner_average,
    folner_enumerate,
    folner_partner,
    folner_sample,
    mu_estimate,
    trapezoid_bump,
    weight,
    weight_stability,
)
from qpairs.errors import DomainError, ResourceError
from qpairs.multfunc import MultiplicativeFunction, liouville, one
from qpairs.quadforms import BinaryQuadraticForm

P11 = BinaryQuadraticForm(1, 0, 1)
P12 = BinaryQuadraticForm(1, 0, 2)
PMN = BinaryQuadraticForm(0, 2, 0)  # 2mn


# --- weights -------------------------------------------------------------------

def test_trapezoid_shape():
    delta = 0.2
    assert trapezoid_bump(0.0, delta) == 1.0
    assert trapezoid_bump(delta / 2, delta) == 1.0
    assert trapezoid_bump(3 * delta / 4, delta) == pytest.approx(0.5)
    assert trapezoid_bump(delta, delta) == 0.0
    assert trapezoid_bump(0.49, delta) == 0.0


def test_weight_trivial_cases():
    spec = WeightSpec(0.3, P11, P11)
    assert weight(spec, 3, 4) == 1.0  # ratio exactly 1
    neg = WeightSpec(0.3, BinaryQuadraticForm(1, 0, -2), P11)
    assert weight(neg, 1, 1) == 0.0  # first form value negative
    with pytest.raises(DomainError):
        WeightSpec(0.6, P11, P11)
    with pytest.raises(DomainError):
        weight(spec, 0, 0)


def test_weight_phase_slope():
    # phase exactly 3*delta/4: pick real coordinates on the unit square
    spec = WeightSpec(0.3, P11, P11)
    from qpairs.averaging import weight_grid

    # engineered ratio: evaluate the bump directly through the grid machinery
    u = np.array([[2.0]])
    w = np.array([[1.0]])
    assert weight_grid(spec, u, w)[0, 0] == 1.0


def test_mu_estimates():
    spec = WeightSpec(0.3, P11, P11)
    est = mu_estimate(spec, 500)
    assert est.grid == 1.0  # weight is identically 1
    est = mu_estimate(WeightSpec(0.3, P12, PMN), 1500)
    assert est.grid >= 0.001
    assert est.agreement <= 0.01
    # case with a reducible second form of mixed sign
    est = mu_estimate(WeightSpec(0.3, BinaryQuadraticForm(1, 0, -2), BinaryQuadraticForm(0, 1, 0)), 1500)
    assert est.grid > 0
    with pytest.raises(DomainError):
        mu_estimate(spec, 50)


def test_mu_estimate_scalar_oracle():
    """Both estimators against the scalar weight summed with fsum; n = 130
    spans two stripes."""
    n = 130
    for forms in ((P12, PMN), (BinaryQuadraticForm(1, 0, -2), BinaryQuadraticForm(0, 1, 0))):
        spec = WeightSpec(0.3, *forms)
        est = mu_estimate(spec, n)
        grid = math.fsum(weight(spec, m, k) for m in range(1, n + 1) for k in range(1, n + 1))
        mids = [(i - 0.5) / n for i in range(1, n + 1)]
        riemann = math.fsum(weight(spec, x, y) for x in mids for y in mids)
        assert est.grid == pytest.approx(grid / n**2, abs=1e-12)
        assert est.riemann == pytest.approx(riemann / n**2, abs=1e-12)


def test_normalized_weight_near_one():
    # grid mean over riemann mean stays within 2 percent at n = 2000
    for forms in ((P12, PMN), (BinaryQuadraticForm(1, 0, -2), BinaryQuadraticForm(0, 1, 0))):
        est = mu_estimate(WeightSpec(0.3, *forms), 2000)
        assert abs(est.grid / est.riemann - 1.0) <= 0.02


def test_weight_stability_decreases():
    spec = WeightSpec(0.3, P12, PMN)
    at_500 = weight_stability(spec, 1, 0, 50, 500)
    at_2000 = weight_stability(spec, 1, 0, 50, 2000)
    assert at_2000 <= 0.05
    assert at_2000 <= at_500


# --- Folner boxes -----------------------------------------------------------------

def test_folner_enumerate_counts():
    e3 = folner_enumerate(3)
    assert len(e3) == 9
    assert {tuple(sorted(x.as_dict().items())) for x in e3} == {
        ((2, a), (3, b)) for a in (4, 5, 6) for b in (4, 5, 6)
    }
    e2 = folner_enumerate(2)
    assert len(e2) == 2 and {x.as_dict()[2] for x in e2} == {3, 4}
    assert len(folner_enumerate(4)) == 16
    with pytest.raises(ResourceError):
        folner_enumerate(8)
    sample = folner_sample(11, 5, seed=1)
    assert len(sample) == 5
    assert sample == folner_sample(11, 5, seed=1)  # deterministic


def test_folner_average_closed_forms():
    lam = liouville()
    assert abs(folner_average(lam, 3) - 1 / 9) < 1e-12
    assert abs(folner_average(lam, 4)) < 1e-12
    assert folner_average(one(), 5) == 1.0


def test_folner_average_factors_per_prime():
    # f with a cube root of unity at 2, trivial elsewhere
    zeta = cmath.exp(2j * math.pi / 3)
    f = MultiplicativeFunction(
        description="zeta2",
        prime_power_rule=lambda p, k: zeta**k if p == 2 else 1.0,
    )
    for k in (3, 4, 5):
        per_prime = sum(zeta**a for a in range(k + 1, 2 * k + 1)) / k
        assert abs(folner_average(f, k) - per_prime) < 1e-12


def test_folner_partner_box():
    box1 = folner_partner(5, 1, P11, P12)
    dicts = [x.as_dict() for x in box1]
    assert dicts == [{5: 6}, {5: 7}]
    box2 = folner_partner(5, 2, P11, P12)
    assert [x.as_dict() for x in box2] == [{3: 6}, {3: 7}]
    elem = box1[0]
    assert elem.integer_value() == 5**6
    assert abs(elem.log_value() - 6 * math.log(5)) < 1e-12


# --- divisor statistics ---------------------------------------------------------------

def test_divisor_stat_exact_examples():
    val = divisor_stat_exact(P11, 1, 0, 0, 5, 5, 2000)
    assert abs(val - 0.256) <= 0.01
    assert divisor_stat_exact(P11, 1, 0, 0, 3, 3, 1000) == 0.0
    val = divisor_stat_exact(P11, 1, 0, 0, 5, 13, 2000)
    assert abs(val - 0.256 * (288 / 2197)) <= 0.01


def test_divisor_stat_python_int_grid_is_exact():
    """A grid whose values need Python ints (Q = 10^9) counts exactly what a
    Python-int loop counts; the grid cap is checked first."""
    q, n = 10**9, 200
    values = [P11.value(q * m + 1, q * k) for m in range(1, n + 1) for k in range(1, n + 1)]
    for p, p2 in ((13, 13), (13, 17), (5, 13)):
        hits = sum(all(v % r == 0 and v % (r * r) for r in {p, p2}) for v in values)
        assert divisor_stat_exact(P11, q, 1, 0, p, p2, n) == hits / n**2, (p, p2)
        if (p, p2) == (13, 13):
            assert hits / n**2 == 0.13095
    with pytest.raises(ResourceError, match="grid 10001 exceeds cap 10000"):
        divisor_stat_exact(P11, q, 1, 0, 5, 5, 10**4 + 1)


def test_divisor_stats_refuse_non_primes():
    for p, p2 in ((0, 5), (1, 1), (4, 4), (5, 9), (-5, 5)):
        with pytest.raises(DomainError, match="need primes"):
            divisor_stat_exact(P11, 1, 0, 0, p, p2, 50)
        with pytest.raises(DomainError, match="need primes"):
            divisor_stat_predicted(P11, p, p2)


def test_divisor_stat_predicted_values():
    assert divisor_stat_predicted(P11, 5, 5) == pytest.approx(32 / 125)
    assert divisor_stat_predicted(P11, 13, 13) == pytest.approx(288 / 2197)
    assert divisor_stat_predicted(P11, 5, 13) == pytest.approx((32 / 125) * (288 / 2197))
    with pytest.raises(DomainError):
        divisor_stat_predicted(P11, 2, 5)  # divides 2*disc
    with pytest.raises(DomainError):
        divisor_stat_predicted(PMN, 5, 5)  # reducible


def test_exact_matches_predicted():
    primes = (5, 13, 17, 29)
    for q in (1, 12):
        for i, p in enumerate(primes):
            for p2 in primes[i:]:
                exact = divisor_stat_exact(P11, q, 1, 0, p, p2, 2000)
                pred = divisor_stat_predicted(P11, p, p2, q)
                assert abs(exact - pred) <= 0.01, (q, p, p2)


def test_divisor_statistics_python_count():
    """Exact frequencies equal a plain Python count; n = 130 spans two stripes."""
    n = 130
    form = BinaryQuadraticForm(1, 2, 5)
    for q, a, b in ((1, 0, 0), (3, 1, 2)):
        vals = [form.value(q * m + a, q * k + b) for m in range(1, n + 1) for k in range(1, n + 1)]

        def exactly(v, p):
            return v % p == 0 and v % (p * p) != 0

        for p, p2 in ((5, 5), (13, 13), (5, 13)):
            count = sum(1 for v in vals if exactly(v, p) and exactly(v, p2))
            assert divisor_stat_exact(form, q, a, b, p, p2, n) == count / n**2
        for l in (5, 25, 65):
            count = sum(1 for v in vals if v % l == 0)
            assert divisor_bound_probe(form, q, a, b, l, n) == (count / n**2, q * q / l)


def test_divisor_bound_probe():
    exact, ref = divisor_bound_probe(P11, 1, 0, 0, 5, 1000)
    assert exact == pytest.approx(9 / 25)  # residue classes mod 5: 8 off-axis + origin
    assert ref == pytest.approx(0.2)
    assert exact <= 10 * ref
    exact, _ = divisor_bound_probe(P11, 1, 0, 0, 10007 * 10009, 2000)
    assert exact == 0.0
    exact, _ = divisor_bound_probe(P11, 1, 0, 0, 4999, 2000)
    assert exact <= 10 / 4999
    with pytest.raises(DomainError):
        divisor_bound_probe(P11, 1, 0, 0, 30, 100)  # three primes
