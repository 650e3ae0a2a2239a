"""Concentration sums and grid experiments.

Everything here is a finite-N measurable quantity: concentration left-hand
sides against their single predicted value, Turan-Kubilius-style variances,
normalized weighted pair correlations L(f, Q; a, b), Folner-averaged
nonnegativity probes, multilinear correlation probes over convex cones, and
the level-set search for simultaneous arc hits of a multiplicative function
along a pair of forms.

Every grid average runs through `_grid.striped_complex_mean`: disjoint row
stripes with per-stripe sums merged by exactly rounded summation in stripe
order, so results are independent of the thread count.  A stripe is computed
in cache-sized row tiles written into stripe buffers that each worker thread
reuses (`_grid.StripeTiles`).  The weight grid depends only on (m, n), so
the weighted averages over several moduli Q (the Folner probe) share one
pass: each stripe's weights are computed once and reused for every Q.  Each
average sets up its lattice through `_lattice`, which checks the grid cap,
chooses int64 or Python ints and builds the value tables.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ._grid import StripeTiles, striped_complex_mean
from .arith import fsum_complex, sieve_primes
from .caps import CAPS
from .errors import DomainError, InvariantError, ResourceError
from .multfunc import (
    AdditiveFunction,
    MultiplicativeFunction,
    TwistData,
    _additive_term,
    _cmul,
    _prime_power_it,
    _root_count_weights,
    _unit_weights,
    dirichlet_characters,
    distance_additive,
    evaluate_many,
    prime_value_table,
    prime_values,
    prime_window_sum,
)
from .averaging import WeightSpec, folner_enumerate, weight_grid
from .quadforms import (
    BinaryQuadraticForm,
    LinearForm,
    form_has_root,
    needs_bigint,
    shifted_value_bound,
    _roots_mod_prime_power,
)

# --------------------------------------------------------------------------
# prime sums
# --------------------------------------------------------------------------


def principal_twist() -> TwistData:
    return TwistData(t=0.0, chi=dirichlet_characters(1)[0])


def _concentration_term(weights, f: MultiplicativeFunction, twist: TwistData):
    """primes -> w(p)/p * (f(p) conj(chi(p)) p^{-it} - 1) for w = weights(primes),
    0 where w(p) = 0."""

    def term(primes: np.ndarray) -> np.ndarray:
        w = weights(primes)
        tw = np.conj(twist.chi.value_array()[primes % twist.chi.q])
        if twist.t != 0.0:
            tw = _cmul(tw, _prime_power_it(primes, -twist.t))
        z = _cmul(prime_values(f, primes), tw)
        s = w / primes
        out = np.zeros(len(primes), dtype=np.complex128)
        np.multiply(s, z.real - 1.0, out=out.real, where=w != 0)
        np.multiply(s, z.imag, out=out.imag, where=w != 0)
        return out

    return term


def concentration_exponent_form(
    form: BinaryQuadraticForm,
    f: MultiplicativeFunction,
    twist: TwistData,
    k: int,
    n: int,
) -> complex:
    """Sum over k < p <= n of omega_P(p)/p * (f(p) conj(chi(p)) p^{-it} - 1).

    Its exponential is the predicted concentration value for f along the
    form.  Exactly rounded summation.
    """
    if k >= n:
        return 0j
    return prime_window_sum(_concentration_term(_root_count_weights(form), f, twist), k, n)


def concentration_exponent(
    f: MultiplicativeFunction, twist: TwistData, k: int, n: int
) -> complex:
    """The linear-form analogue: weight 1/p over all primes in (k, n]."""
    if k >= n:
        return 0j
    return prime_window_sum(_concentration_term(_unit_weights, f, twist), k, n)


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


def _lattice_coords(q: int, shift: int, xs: np.ndarray, big: bool) -> np.ndarray:
    """q * xs + shift as int64, or as Python ints when the grid needs them."""
    if big:
        return np.array([q * int(x) + shift for x in xs], dtype=object)
    return (q * xs + shift).astype(np.int64)


def _lattice(
    fs: Sequence[MultiplicativeFunction],
    forms: Sequence[BinaryQuadraticForm],
    q: int,
    a: int,
    b: int,
    n: int,
) -> tuple[bool, np.ndarray]:
    """Set up the lattice (Qm+a, Qn+b) over [n]^2 for the forms.

    Checks the grid cap, chooses int64 or Python ints (big) by the 2**62
    guard, builds the value tables of fs once at the grid's bound, and
    returns (big, w) with w the column coordinates Qn+b as a (1, n) row.
    """
    if n > CAPS.grid_n:
        raise ResourceError(f"grid {n} exceeds cap {CAPS.grid_n}")
    big = any(needs_bigint(form, q, a, b, n) for form in forms)
    if not big:
        bound = max(shifted_value_bound(form, q, a, b, n) for form in forms)
        for f in fs:
            prime_value_table(f, bound)
    return big, _lattice_coords(q, b, np.arange(1, n + 1, dtype=np.int64), big)[None, :]


def concentration_lhs(setup: ConcentrationSetup, threads: int = 1) -> float:
    """Grid mean of |f(P_c(Qm+a, Qn+b)) - chi(P_c(a,b)) * |P_c(Qm,Qn)|^{it} * exp(G)|.

    P_c means the values P(...)/c, which are integers on this lattice.  The
    comparison value is a single complex number per grid point up to the
    Archimedean factor; with t = 0 it is one constant, making the
    exact-agreement configurations test the whole congruence pipeline.
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
    big, w = _lattice([f], [form], q, a, b, n)
    w0 = w - b
    g_val = cmath.exp(concentration_exponent_form(form, f, twist, k, n))
    chi0 = twist.chi(form.value(a, b) // c)
    target0 = chi0 * g_val
    tiles = StripeTiles(n, np.float64)

    def block(ms: np.ndarray) -> tuple[float]:
        parts, (dev,) = tiles(ms)
        for rows in parts:
            vals = form.grid_values(_lattice_coords(q, a, ms[rows], big)[:, None], w)
            if big:
                flat = vals.reshape(-1)
                if any(int(v) % c for v in flat):
                    raise InvariantError("c does not divide a lattice value")
                vc = np.array([int(v) // c for v in flat], dtype=object).reshape(vals.shape)
            else:
                if np.any(vals % c):
                    raise InvariantError("c does not divide a lattice value")
                vc = vals // c
            fv = evaluate_many(f, vc)
            target = target0
            if twist.t != 0.0:
                u0 = _lattice_coords(q, 0, ms[rows], big)[:, None]
                base = np.abs(form.grid_values(u0, w0).astype(np.float64)) / c
                target = target * np.exp(1j * twist.t * np.log(base))
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
    mod p and subtracts it at those mod p^2, in (p, p^e, root) order.
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
        if abs(hp) > 1 + 1e-12:
            raise DomainError("h must be bounded by 1 on primes")
        if q % p == 0 or (2 * form.alpha * form.discriminant) % p == 0:
            raise DomainError(f"support prime {p} collides with Q or the form data")
        support.append((p, hp))

    big, w = _lattice([], [form], q, a, b, n)
    if big:
        raise ResourceError("lattice values overflow the fast integer path")
    ws = w[0]
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
                starts = ((r * wmod - a) % modulus * qinv - 1) % modulus + 1
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
# weighted pair averages
# --------------------------------------------------------------------------


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
    constant function averages to exactly 1; one striped pass computes each
    stripe's weights once and sums both the weights and the correlation.
    """
    return _weighted_pair_averages(f, form1, form2, delta, [q], a, b, n, threads)[0]


def _weighted_pair_averages(
    f: MultiplicativeFunction,
    form1: BinaryQuadraticForm,
    form2: BinaryQuadraticForm,
    delta: float,
    qs: Sequence[int],
    a: int,
    b: int,
    n: int,
    threads: int,
) -> list[complex]:
    """weighted_pair_average for each modulus in qs, in one striped pass.

    The weight does not depend on Q: each stripe fills its weight buffer
    once, then one complex buffer with w * f(P1) * conj(f(P2)) for each Q in
    turn, so memory does not grow with the number of moduli.
    """
    lattices = [(q, *_lattice([f], [form1, form2], q, a, b, n)) for q in qs]
    spec = WeightSpec(delta, form1, form2)
    cols = np.arange(1, n + 1, dtype=np.int64)
    tiles = StripeTiles(n, np.float64, np.complex128)

    def block(ms: np.ndarray) -> tuple:
        parts, (wgt, prod) = tiles(ms)
        for rows in parts:
            wgt[rows] = weight_grid(spec, ms[rows, None], cols[None, :])
        sums = [float(np.sum(wgt))]
        for q, big, w in lattices:
            for rows in parts:
                u = _lattice_coords(q, a, ms[rows], big)[:, None]
                f1 = evaluate_many(f, form1.grid_values(u, w))
                f2 = evaluate_many(f, form2.grid_values(u, w))
                out = prod[rows]
                np.multiply(wgt[rows], f1, out=out)
                out *= np.conj(f2, out=f2)
            sums.append(complex(np.sum(prod)))
        return tuple(sums)

    mu, *totals = striped_complex_mean(block, n, threads)
    if mu <= 0:
        raise DomainError("the weight vanishes on this grid; nothing to normalize")
    return [total / mu for total in totals]


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
    big, w = _lattice([f], [form1, form2], q, a, b, n)
    tiles = StripeTiles(n, np.complex128)

    def block(ms: np.ndarray) -> tuple[complex]:
        parts, (prod,) = tiles(ms)
        for rows in parts:
            u = _lattice_coords(q, a, ms[rows], big)[:, None]
            f1 = evaluate_many(f, form1.grid_values(u, w))
            f2 = evaluate_many(f, form2.grid_values(u, w))
            np.multiply(f1, np.conj(f2, out=f2), out=prod[rows])
        return (complex(np.sum(prod)),)

    return striped_complex_mean(block, n, threads)[0]


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
    correlation with the lattice Qm+1, Qn."""
    if k > 4:
        raise ResourceError("probe limited to K <= 4: Q already has hundreds of digits beyond")
    qs = [elem.integer_value() for elem in folner_enumerate(k)]
    values = _weighted_pair_averages(f, form1, form2, delta, qs, 1, 0, n, threads)
    return float(np.mean([value.real for value in values]))


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
    big, w = _lattice([fj for fj, _ in factors] + [g], [form], q, a, b, n)
    tiles = StripeTiles(n, np.complex128)

    def block(ms: np.ndarray) -> tuple[complex]:
        parts, (prod,) = tiles(ms)
        for rows in parts:
            u = _lattice_coords(q, a, ms[rows], big)[:, None]
            vals = prod[rows]
            vals[...] = region.mask(u, w)
            for fj, lj in factors:
                vals *= evaluate_many(fj, lj.grid_values(u, w))
            vals *= evaluate_many(g, form.grid_values(u, w))
        return (complex(np.sum(prod)),)

    return striped_complex_mean(block, n, threads)[0]


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
    arr = np.array([(v1, v2) for _, _, v1, v2 in pairs], dtype=np.int64)
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
