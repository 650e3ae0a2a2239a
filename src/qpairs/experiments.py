"""Concentration sums and grid experiments.

Everything here is a finite-N measurable quantity: concentration left-hand
sides against their single predicted value exp(G), G the pretentious prime
sum of `multfunc` with g = chi n^{it}, Turan-Kubilius-style variances,
normalized weighted pair correlations L(f, Q; a, b), Folner-averaged
nonnegativity probes, multilinear correlation probes over convex cones, and
the level-set search for simultaneous arc hits of a multiplicative function
along a pair of forms.

Every grid average runs through `_grid.striped_complex_mean`: disjoint row
stripes with per-stripe sums merged by exactly rounded summation in stripe
order, so results are independent of the thread count.  A stripe is computed
in cache-sized row tiles written into stripe buffers that each worker thread
reuses (`_grid.StripeTiles`).  The weighted and unweighted pair
correlations, the Folner probe and the multilinear probe are all a mean of
weight * prod factor over lattices (Qm+a, Qn+b), computed by one pass
(`_striped_products`): each stripe's weights are computed once for every Q,
and the factors are evaluated only on each tile's column span of nonzero
weight.  Each average sets up its lattice, int64 or Python ints, through
`_grid._lattice`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ._grid import StripeTiles, _lattice, striped_complex_mean
from .arith import fsum_complex, sieve_primes
from .errors import DomainError, InvariantError, ResourceError
from .multfunc import (
    AdditiveFunction,
    MultiplicativeFunction,
    TRIVIAL_CHARACTER,
    TwistData,
    _additive_term,
    _pretentious_term,
    _root_count_weights,
    _unit_power,
    _unit_weights,
    distance_additive,
    evaluate_many,
    prime_window_sum,
    twisted,
)
from .averaging import WeightSpec, folner_enumerate, weight_grid
from .quadforms import (
    BinaryQuadraticForm,
    LinearForm,
    form_has_root,
    needs_bigint,
    _roots_mod_prime_power,
)

# --------------------------------------------------------------------------
# prime sums
# --------------------------------------------------------------------------


def principal_twist() -> TwistData:
    return TwistData(t=0.0, chi=TRIVIAL_CHARACTER)


def concentration_exponent_form(
    form: BinaryQuadraticForm,
    f: MultiplicativeFunction,
    twist: TwistData,
    k: int,
    n: int,
) -> complex:
    """Sum over k < p <= n of omega_P(p)/p * (f(p) conj(chi(p)) p^{-it} - 1).

    Its exponential is the predicted concentration value for f along the
    form; its real part is exactly minus distance_form(f, chi n^{it})**2.
    """
    if k >= n:
        return 0j
    g = twisted(twist.chi, twist.t)
    return prime_window_sum(_pretentious_term(_root_count_weights(form), f, g), k, n)


def concentration_exponent(
    f: MultiplicativeFunction, twist: TwistData, k: int, n: int
) -> complex:
    """The linear-form analogue: weight 1/p over all primes in (k, n]."""
    if k >= n:
        return 0j
    return prime_window_sum(_pretentious_term(_unit_weights, f, twisted(twist.chi, twist.t)), k, n)


def predicted_additive_mean(h: AdditiveFunction, k: int, n: int) -> complex:
    """2 * sum over k < p <= n of h(p)/p."""
    if k >= n:
        return 0j
    return prime_window_sum(_additive_term(h, lambda p: 2.0 / p * h.at_prime(p)), k, n)


# --------------------------------------------------------------------------
# setups and value grids
# --------------------------------------------------------------------------


def _expand_q(q) -> int:
    if isinstance(q, Mapping):
        out = 1
        for p, e in q.items():
            out *= int(p) ** int(e)
        return out
    return int(q)


@dataclass(frozen=True)
class ConcentrationSetup:
    """Inputs of one concentration run; invariants checked on construction."""

    form: BinaryQuadraticForm
    f: MultiplicativeFunction
    twist: TwistData
    q: int  # accepts an exponent assignment via factory below
    a: int
    b: int
    c: int
    k: int
    n: int

    def __post_init__(self):
        if self.c <= 0 or self.q <= 0:
            raise DomainError("Q and c must be positive")
        pab = self.form.value(self.a, self.b)
        if pab % self.c or self.q % self.c:
            raise DomainError("c must divide gcd(P(a, b), Q)")
        qc = self.q // self.c
        if qc % self.twist.chi.q:
            raise DomainError("the character modulus must divide Q/c")
        if self.k < 1:
            raise DomainError("need K >= 1")
        if qc % math.prod(sieve_primes(self.k) if self.k > 1 else ()):
            raise DomainError("the product of primes <= K must divide Q/c")
        if self.k >= self.n:
            raise DomainError("need K < N")


def concentration_setup(form, f, twist, q, a, b, c, k, n) -> ConcentrationSetup:
    """Build a setup; q may be an integer or an exponent assignment."""
    return ConcentrationSetup(form, f, twist, _expand_q(q), a, b, c, k, n)


def concentration_lhs(setup: ConcentrationSetup, threads: int = 1) -> float:
    """Grid mean of |f(P_c(Qm+a, Qn+b)) - chi(P_c(a,b)) * |P_c(Qm,Qn)|^{it} * exp(G)|.

    P_c means the values P(...)/c, which are integers on this lattice.  The
    comparison value is a single complex number per grid point up to the
    Archimedean factor; with t = 0 it is one constant, making the
    exact-agreement configurations test the whole congruence pipeline.
    Where P(Qm, Qn) = 0 the factor is 0^{it} = 1, as in `evaluate_many`.
    """
    form, f, twist, q, a, b, c, k, n = (
        setup.form,
        setup.f,
        setup.twist,
        setup.q,
        setup.a,
        setup.b,
        setup.c,
        setup.k,
        setup.n,
    )
    u_of, w = _lattice([f], [form], q, a, b, n)
    w0 = w - b
    g_val = cmath.exp(concentration_exponent_form(form, f, twist, k, n))
    chi0 = twist.chi(form.value(a, b) // c)
    target0 = chi0 * g_val
    tiles = StripeTiles(n, np.float64)

    def block(ms: np.ndarray) -> tuple[float]:
        parts, (dev,) = tiles(ms)
        for rows in parts:
            u = u_of(ms[rows])
            vals = form.grid_values(u, w)
            if np.any(vals % c):
                raise InvariantError("c does not divide a lattice value")
            fv = evaluate_many(f, vals // c)
            target = target0
            if twist.t != 0.0:
                base = np.abs(form.grid_values(u - a, w0).astype(np.float64)) / c
                # not `target0 * array`, whose operands numpy may swap (see _grid)
                target = np.multiply(_unit_power(base, twist.t), target0)
            np.abs(fv - target, out=dev[rows])
        return (float(np.sum(dev)),)

    return striped_complex_mean(block, n, threads)[0]


# --------------------------------------------------------------------------
# Turan-Kubilius variance
# --------------------------------------------------------------------------


def turan_kubilius_variance(
    setup: ConcentrationSetup, h: AdditiveFunction, threads: int = 1
) -> "TkReport":
    """Grid variance of h(P_c(Qm+a, Qn+b)) around the predicted mean.

    h must vanish at primes <= K, primes > N, primes where the form has no
    root, and on all higher prime powers; under those conditions h of a
    lattice value is a sum of h(p) over primes exactly dividing it, which is
    accumulated by sieving root classes instead of factorizing.  For p not
    dividing w = Qn+b, p^e divides P(Qm+a, w) exactly when Qm+a = r*w
    (mod p^e) for a root r of P(x, 1) mod p^e: one residue class of rows per
    column, root and p^e.  Each stripe adds h(p) at the hits of the classes
    mod p and subtracts it at those mod p^2, in (p, p^e, root) order.  Start
    rows are int64 on a Python-int lattice too.
    """
    form, q, a, b, c, k, n = (
        setup.form,
        setup.q,
        setup.a,
        setup.b,
        setup.c,
        setup.k,
        setup.n,
    )
    if h.support is None:
        raise DomainError("the additive function must declare its prime support")
    support = []
    for p in h.support:
        hp = h.at_prime(p)
        if hp == 0:
            continue
        if p <= k or p > n:
            raise DomainError(f"h({p}) != 0 violates the support window ({k}, {n}]")
        if not form_has_root(form, p):
            raise DomainError(f"h({p}) != 0 but the form has no root mod {p}")
        if h.prime_power_rule(p, 2) != 0:
            raise DomainError("h must vanish on higher prime powers")
        if not abs(hp) <= 1 + 1e-12:  # NaN compares False
            raise DomainError("h must be bounded by 1 on primes")
        if q % p == 0 or (2 * form.alpha * form.discriminant) % p == 0:
            raise DomainError(f"support prime {p} collides with Q or the form data")
        support.append((p, hp))

    ws = _lattice([], [form], q, a, b, n)[1][0]  # the columns Qn+b
    # per (p, p^e, root), in that order: the columns j with p not dividing w_j,
    # sorted by start_j in [1, p^e], where their hit rows start_j + t * p^e
    # begin; a stripe finds the hits of each shift t * p^e by binary search
    classes = []
    for p, hp in support:
        keep = np.flatnonzero(ws % p)  # p | w forces p^2 | P: never exact
        for e, sign in ((1, 1.0), (2, -1.0)):
            modulus = p**e
            wmod = ws[keep] % modulus
            qinv = pow(q, -1, modulus)
            for r in _roots_mod_prime_power(form, p, e):
                starts = (((r * wmod - a) % modulus * qinv - 1) % modulus + 1).astype(np.int64)
                order = np.argsort(starts)
                classes.append((modulus, sign * hp, starts[order], keep[order]))
    mean_pred = predicted_additive_mean(h, k, n)
    tiles = StripeTiles(n, np.complex128, np.float64)

    def block(ms: np.ndarray) -> tuple[float]:
        _, (acc, dev) = tiles(ms)
        lo, hi = int(ms[0]), int(ms[-1]) + 1
        acc.fill(0)
        for modulus, value, starts, cols in classes:
            for shift in range((lo - 1) // modulus * modulus, hi - 1, modulus):
                i, j = np.searchsorted(starts, (lo - shift, hi - shift))
                acc[starts[i:j] + (shift - lo), cols[i:j]] += value
        np.subtract(acc, mean_pred, out=acc)
        np.abs(acc, out=dev)
        np.square(dev, out=dev)
        return (float(np.sum(dev)),)

    variance = striped_complex_mean(block, n, threads)[0]
    split = max(k, math.isqrt(n))
    d_low = distance_additive(h, k, split)
    d_high = distance_additive(h, split, n)
    return TkReport(
        variance=variance,
        predicted_mean=mean_pred,
        dist_sq_low=d_low**2,
        dist_sq_high=d_high**2,
        k_term=1.0 / k,
    )


@dataclass(frozen=True)
class TkReport:
    variance: float
    predicted_mean: complex
    dist_sq_low: float  # squared prime-sum norm of h on (K, sqrt(N)]
    dist_sq_high: float  # on (sqrt(N), N]
    k_term: float


# --------------------------------------------------------------------------
# product averages on lattices
# --------------------------------------------------------------------------


def _striped_products(
    fs: Sequence[MultiplicativeFunction],
    forms: Sequence[BinaryQuadraticForm],
    qs: Sequence[int],
    a: int,
    b: int,
    n: int,
    factors: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray]],
    weight: Optional[WeightSpec],
    threads: int,
) -> list:
    """E w~(m, n) * prod factor(u, w) over [n]^2, u = Qm+a, w = Qn+b, for
    each Q in qs, in one striped pass; w~ is the weight over its own grid
    mean, or 1 without a weight.

    fs, forms, qs, a, b and n set up each lattice (`_grid._lattice`).  A
    factor maps rows u (rows, 1) and columns w (1, cols) to values.  A tile
    evaluates every factor, then multiplies out of place (see _grid) from
    the weight or the first factor, in factor order.  A stripe fills its
    weights once for every Q, and evaluates the factors only on each tile's
    span of columns with a nonzero weight in any of its rows.  That is exact
    as every factor is finite with modulus at most 1: a zero weight gives a
    term of +-0, which leaves every nonzero partial sum of the stripe's
    np.sum as it is, and math.fsum of the stripe sums turns a zero of either
    sign into +0.
    """
    lattices = [_lattice(fs, forms, q, a, b, n) for q in qs]
    if weight is not None:
        weight_of, weight_w = _lattice([], [weight.form1, weight.form2], 1, 0, 0, n)
    tiles = StripeTiles(n, np.complex128, *([] if weight is None else [np.float64]))

    def block(ms: np.ndarray) -> tuple:
        parts, (prod, *weights) = tiles(ms)
        sums, spans = [], [(rows, slice(None)) for rows in parts]
        if weight is not None:
            wgt, spans = weights[0], []
            prod.fill(0)
            for rows in parts:
                wgt[rows] = weight_grid(weight, weight_of(ms[rows]), weight_w)
                nz = np.flatnonzero(wgt[rows].any(axis=0))
                if len(nz):
                    spans.append((rows, slice(nz[0], nz[-1] + 1)))
            sums.append(float(np.sum(wgt)))
        for u_of, w in lattices:
            for rows, span in spans:
                u, ws = u_of(ms[rows]), w[:, span]
                # rebound before the factors run, so no tile's values outlive it
                values = [] if weight is None else [wgt[rows, span]]
                values += [factor(u, ws) for factor in factors]
                np.multiply(reduce(np.multiply, values[:-1]), values[-1], out=prod[rows, span])
            sums.append(complex(np.sum(prod)))
        return tuple(sums)

    means = striped_complex_mean(block, n, threads)
    if weight is None:
        return list(means)
    mu, *totals = means
    if mu <= 0:
        raise DomainError("the weight vanishes on this grid; nothing to normalize")
    return [total / mu for total in totals]


def _values_of(f: MultiplicativeFunction, form):
    """The factor f(form(u, w))."""
    return lambda u, w: evaluate_many(f, form.grid_values(u, w))


def _pair_averages(f, form1, form2, weight, qs, a, b, n, threads) -> list[complex]:
    """E w~ f(P1) conj(f(P2)) on the lattice for each Q in qs."""
    factors = [_values_of(f, form1), lambda u, w: np.conj(v := _values_of(f, form2)(u, w), out=v)]
    return _striped_products([f], [form1, form2], qs, a, b, n, factors, weight, threads)


def weighted_pair_average(
    f: MultiplicativeFunction,
    form1: BinaryQuadraticForm,
    form2: BinaryQuadraticForm,
    delta: float,
    q: int,
    a: int,
    b: int,
    n: int,
    threads: int = 1,
) -> complex:
    """Normalized weighted correlation
    E w~(m,n) f(P1(Qm+a, Qn+b)) conj(f(P2(Qm+a, Qn+b))) over [n]^2.

    The weight is normalized by its own grid mean at the same n, so the
    constant function averages to exactly 1.
    """
    return _pair_averages(f, form1, form2, WeightSpec(delta, form1, form2), [q], a, b, n, threads)[0]


def pair_correlation(
    f: MultiplicativeFunction,
    form1: BinaryQuadraticForm,
    form2: BinaryQuadraticForm,
    q: int,
    a: int,
    b: int,
    n: int,
    threads: int = 1,
) -> complex:
    """Unweighted E f(P1(Qm+a, Qn+b)) conj(f(P2(Qm+a, Qn+b)))."""
    return _pair_averages(f, form1, form2, None, [q], a, b, n, threads)[0]


def nonnegativity_probe(
    f: MultiplicativeFunction,
    form1: BinaryQuadraticForm,
    form2: BinaryQuadraticForm,
    delta: float,
    k: int,
    n: int,
    threads: int = 1,
) -> float:
    """Mean over the Folner box at level K of Re of the normalized weighted
    correlation with the lattice Qm+1, Qn, in one pass for all the moduli."""
    if k > 4:
        raise ResourceError("probe limited to K <= 4: Q already has hundreds of digits beyond")
    qs = [elem.integer_value() for elem in folner_enumerate(k)]
    values = _pair_averages(f, form1, form2, WeightSpec(delta, form1, form2), qs, 1, 0, n, threads)
    return fsum_complex(values).real / len(values)


# --------------------------------------------------------------------------
# multilinear correlation probes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionSpec:
    """Intersection of half-planes u*x + v*y >= 0: a homogeneous convex cone."""

    halfplanes: tuple[tuple[int, int], ...] = ()

    def mask(self, x, y):
        out = None
        for hu, hv in self.halfplanes:
            cond = (hu * x + hv * y) >= 0
            out = cond if out is None else (out & cond)
        if out is None:
            return np.ones(np.broadcast(x, y).shape, dtype=bool)
        return np.broadcast_to(out, np.broadcast(x, y).shape)


FULL_QUADRANT = RegionSpec()


def correlation_probe(
    factors: Sequence[tuple[MultiplicativeFunction, LinearForm]],
    g: MultiplicativeFunction,
    form: BinaryQuadraticForm,
    region: RegionSpec,
    q: int,
    a: int,
    b: int,
    n: int,
    threads: int = 1,
) -> complex:
    """E 1_region(u, w) * prod f_j(L_j(u, w)) * g(P(u, w)), u = Qm+a, w = Qn+b.

    The first linear form must be nontrivial and independent of every other.
    """
    if not factors:
        raise DomainError("need at least one linear factor")
    l1 = factors[0][1]
    if not l1.nontrivial:
        raise DomainError("the first linear form is trivial")
    for _, lj in factors[1:]:
        if not l1.independent(lj):
            raise DomainError(f"forms {l1} and {lj} are dependent")
    fs = [fj for fj, _ in factors] + [g]
    terms = [region.mask, *(_values_of(fj, lj) for fj, lj in factors), _values_of(g, form)]
    lines = [lj for _, lj in factors] + [LinearForm(*h) for h in region.halfplanes]
    return _striped_products(fs, [form, *lines], [q], a, b, n, terms, None, threads)[0]


# --------------------------------------------------------------------------
# level sets
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSetSpec:
    """Arc-membership search data for a (pretentious) multiplicative function.

    The arc is centered at 1 with the given half-width in radians; the
    trapezoidal bump supported on it (plateau half the width) supplies the
    Fourier coefficients of the correlation surrogate.
    """

    f: MultiplicativeFunction
    arc_half_width: float
    l_max: int = 40

    def __post_init__(self):
        if not 0 < self.arc_half_width < math.pi:
            raise DomainError("arc half-width must lie in (0, pi)")
        if self.l_max < 1:
            raise DomainError("need l_max >= 1")

    def fourier_coefficients(self) -> dict[int, float]:
        """c_l of the trapezoid: convolution of two boxes of half-widths
        3*delta/4 and delta/4 (delta = half-width in turns)."""
        delta = self.arc_half_width / (2 * math.pi)
        a_box, b_box = 0.75 * delta, 0.25 * delta
        out = {0: 2 * a_box}
        for l in range(1, self.l_max + 1):
            c = (math.sin(2 * math.pi * l * a_box) / (math.pi * l)) * (
                math.sin(2 * math.pi * l * b_box) / (2 * math.pi * l * b_box)
            )
            out[l] = c
            out[-l] = c
        return out

    def in_arc(self, z: complex) -> bool:
        if abs(z) < 1e-12:
            return False
        return abs(cmath.phase(z)) < self.arc_half_width


@dataclass(frozen=True)
class LevelSetHit:
    k: int
    m: int
    n: int
    value1: int  # P1(m, n)
    value2: int  # P2(m, n)
    f_at_k1: complex
    f_at_k2: complex
    surrogate: complex  # sum |c_l|^2 f(v1)^l conj(f(v2)^l)


def level_set_search(
    spec: LevelSetSpec,
    form1: BinaryQuadraticForm,
    form2: BinaryQuadraticForm,
    k_max: int,
    mn_max: int,
) -> Optional[LevelSetHit]:
    """First (k, m, n) with distinct positive form values and both
    f(k * P1(m, n)) and f(k * P2(m, n)) inside the arc.

    Scan order: k ascending, then m, then n.  Returns None when the ranges
    are exhausted (not an error).
    """
    if form1 == form2:
        raise DomainError("the forms must be distinct")
    pairs = []
    for m in range(1, mn_max + 1):
        for n in range(1, mn_max + 1):
            v1 = form1.value(m, n)
            v2 = form2.value(m, n)
            if v1 > 0 and v2 > 0 and v1 != v2:
                pairs.append((m, n, v1, v2))
    if not pairs:
        return None
    values = [(v1, v2) for _, _, v1, v2 in pairs]
    arr = np.array(values, object if needs_bigint(k_max * max(map(max, values))) else np.int64)
    for k in range(1, k_max + 1):
        # as complex128: numpy takes the phase of int8 values in float16
        z1 = evaluate_many(spec.f, k * arr[:, 0]).astype(np.complex128, copy=False)
        z2 = evaluate_many(spec.f, k * arr[:, 1]).astype(np.complex128, copy=False)
        ok = (
            (np.abs(z1) >= 1e-12)
            & (np.abs(z2) >= 1e-12)
            & (np.abs(np.angle(z1)) < spec.arc_half_width)
            & (np.abs(np.angle(z2)) < spec.arc_half_width)
        )
        idx = np.nonzero(ok)[0]
        if len(idx):
            i = int(idx[0])
            m, n, v1, v2 = pairs[i]
            coeffs = spec.fourier_coefficients()
            f1 = complex(evaluate_many(spec.f, np.array([v1]))[0])
            f2 = complex(evaluate_many(spec.f, np.array([v2]))[0])
            surrogate = fsum_complex(
                abs(c) ** 2 * f1**l * (f2**l).conjugate() for l, c in coeffs.items()
            )
            return LevelSetHit(
                k=k,
                m=m,
                n=n,
                value1=v1,
                value2=v2,
                f_at_k1=complex(z1[i]),
                f_at_k2=complex(z2[i]),
                surrogate=surrogate,
            )
    return None
