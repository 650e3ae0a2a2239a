"""Trapezoid weights on form ratios, multiplicative Folner boxes, and exact
divisor statistics with their predicted main terms.

The weight of (m, n) is a trapezoidal bump applied to the circle point
(P1(m,n))^i * (P2(m,n))^{-i}, times indicators that both form values are
positive.  Grid averages of the weight converge to a positive constant when
the forms allow it, and that constant normalizes the correlation averages in
`experiments`.

Every grid average here (mean weights, weight stability, divisor
frequencies) is a striped reduction through `_grid.striped_complex_mean`, so
results do not depend on the thread count, over coordinates from
`_grid._lattice`: int64, or Python ints where form values may pass 2**62.
Each stripe is computed in cache-sized row tiles (`_grid.tiled_block`), and
each tile's values are summed where they are computed, so memory stays at
one tile's temporaries per worker thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

import numpy as np

from ._grid import _lattice, striped_complex_mean, tiled_block
from .arith import factorize, fsum_complex, is_prime, sieve_primes
from .caps import caps
from .errors import DomainError, ResourceError
from .multfunc import MultiplicativeFunction, evaluate_on_exponents
from .quadforms import BinaryQuadraticForm, exceptional_primes, local_root_count

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WeightSpec:
    """Trapezoid half-widths delta in (0, 1/2), forms of equal degree."""

    delta: float
    form1: BinaryQuadraticForm
    form2: BinaryQuadraticForm

    def __post_init__(self):
        if not 0 < self.delta < 0.5:
            raise DomainError("delta must lie in (0, 1/2)")


def trapezoid_bump(phase: np.ndarray | float, delta: float, out: Optional[np.ndarray] = None):
    """1 on |phase| <= delta/2, 0 beyond delta, linear between.

    Phases are in full turns, already reduced to [-1/2, 1/2).  The result
    is written to out when given, which may be phase itself.
    """
    a = np.abs(phase, out=out)
    a = np.multiply(2.0, a, out=out)
    a = np.divide(a, delta, out=out)
    a = np.subtract(2.0, a, out=out)
    return np.clip(a, 0.0, 1.0, out=out)


def _reduced_phase(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """(ln p1 - ln p2) / 2pi reduced to [-1/2, 1/2), computed in place in p1
    with p2 as scratch; inputs must be positive and of one shape."""
    phi = np.log(p1, out=p1)
    phi -= np.log(p2, out=p2)
    phi /= TWO_PI
    shift = np.add(phi, 0.5, out=p2)
    phi -= np.floor(shift, out=shift)
    return phi


def weight_grid(spec: WeightSpec, u, w) -> np.ndarray:
    """Vectorized weight at coordinate arrays (already shifted/scaled)."""
    p1 = np.asarray(spec.form1.grid_values(u, w), dtype=np.float64)
    p2 = np.asarray(spec.form2.grid_values(u, w), dtype=np.float64)
    pos = (p1 > 0) & (p2 > 0)
    if pos.all():
        phi = _reduced_phase(p1, p2)
        return trapezoid_bump(phi, spec.delta, out=phi)
    out = np.zeros(np.broadcast(p1, p2).shape)
    if pos.any():
        phi = _reduced_phase(np.where(pos, p1, 1.0), np.where(pos, p2, 1.0))
        out = np.where(pos, trapezoid_bump(phi, spec.delta, out=phi), 0.0)
    return out


def weight(spec: WeightSpec, m: int, n: int) -> float:
    """Scalar weight at an integer point."""
    if (m, n) == (0, 0):
        raise DomainError("(0, 0) is excluded")
    p1 = spec.form1.value(m, n)
    p2 = spec.form2.value(m, n)
    if p1 <= 0 or p2 <= 0:
        return 0.0
    phi = (math.log(p1) - math.log(p2)) / TWO_PI
    phi -= math.floor(phi + 0.5)
    return float(trapezoid_bump(phi, spec.delta))


@dataclass(frozen=True)
class MuEstimate:
    """Two estimators of the limiting mean weight."""

    grid: float
    riemann: float

    @property
    def agreement(self) -> float:
        return abs(self.grid - self.riemann)


def mu_estimate(spec: WeightSpec, n: int, threads: int = 1) -> MuEstimate:
    """Mean weight over [n]^2, plus a midpoint Riemann sum of the
    scale-invariant integrand over the unit square at the same resolution."""
    if n < 100:
        raise DomainError("need n >= 100 for a stable estimate")
    u_of, w = _lattice([], [spec.form1, spec.form2], 1, 0, 0, n)
    mids = (np.arange(1, n + 1)[None, :] - 0.5) / n

    def tile_sums(rows: np.ndarray) -> tuple[float, float]:
        return (float(np.sum(weight_grid(spec, u_of(rows), w))),
                float(np.sum(weight_grid(spec, ((rows - 0.5) / n)[:, None], mids))))

    grid, riemann = striped_complex_mean(tiled_block(tile_sums, n), n, threads)
    return MuEstimate(grid=grid, riemann=riemann)


def weight_stability(
    spec: WeightSpec, a: int, b: int, q_max: int, n: int, threads: int = 1
) -> float:
    """Grid mean of max over Q <= q_max of |w(Qm+a, Qn+b) - w(m, n)|.

    Diagnostic for replacing the shifted weight by the unshifted one.
    """
    forms = [spec.form1, spec.form2]
    base_of, base_w = _lattice([], forms, 1, 0, 0, n)
    lattices = [_lattice([], forms, q, a, b, n) for q in range(1, q_max + 1)]

    def tile_sums(rows: np.ndarray) -> tuple[float]:
        base = weight_grid(spec, base_of(rows), base_w)
        worst = np.zeros(base.shape)
        for u_of, w in lattices:
            shifted = weight_grid(spec, u_of(rows), w)
            np.maximum(worst, np.abs(shifted - base), out=worst)
        return (float(np.sum(worst)),)

    return striped_complex_mean(tiled_block(tile_sums, n), n, threads)[0]


# --------------------------------------------------------------------------
# Folner boxes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FolnerElement:
    """One box element as an exponent assignment prime -> exponent."""

    exponents: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.exponents)

    def integer_value(self) -> int:
        out = 1
        for p, e in self.exponents:
            out *= p**e
        return out

    def log_value(self) -> float:
        return math.fsum(e * math.log(p) for p, e in self.exponents)


def folner_enumerate(k: int) -> list[FolnerElement]:
    """The full box over primes <= k with exponents in (k, 2k]."""
    if k < 2:
        raise DomainError("need k >= 2")
    if k > caps().folner_k:
        raise ResourceError(
            f"K = {k} gives K^pi(K) elements, beyond the cap {caps().folner_k}; use folner_sample"
        )
    primes = sieve_primes(k)
    ranges = [range(k + 1, 2 * k + 1)] * len(primes)
    return [
        FolnerElement(tuple(zip(primes, combo))) for combo in product(*ranges)
    ]


def folner_sample(k: int, count: int, seed: int = 0) -> list[FolnerElement]:
    """Deterministic uniform sample from the box, for K beyond the cap."""
    import random

    rng = random.Random(seed * 1_000_003 + k)
    primes = sieve_primes(k)
    out = []
    for _ in range(count):
        out.append(
            FolnerElement(tuple((p, rng.randint(k + 1, 2 * k)) for p in primes))
        )
    return out


def folner_partner(
    k: int,
    j: int,
    form1: BinaryQuadraticForm,
    form2: BinaryQuadraticForm,
    excluded: Optional[Iterable[int]] = None,
) -> list[FolnerElement]:
    """The partner box: primes in the j-th partner set (j = 1 or 2) up to k,
    exponents in (k, 3k/2]."""
    from .quadforms import partner_prime_sets

    if j not in (1, 2):
        raise DomainError("j must be 1 or 2")
    skip = set(excluded) if excluded is not None else exceptional_primes(form1, form2, 1)
    p1, p2 = partner_prime_sets(form1, form2, k, skip)
    primes = p1 if j == 1 else p2
    hi = (3 * k) // 2
    if hi <= k:
        raise DomainError("K too small: the exponent range (K, 3K/2] is empty")
    if len(primes) * math.log2(max(2, hi - k)) > 20:
        raise ResourceError("partner box too large to enumerate")
    ranges = [range(k + 1, hi + 1)] * len(primes)
    return [FolnerElement(tuple(zip(primes, combo))) for combo in product(*ranges)]


def folner_average(f: MultiplicativeFunction, k: int) -> complex:
    """Exact mean of f over the Folner box at level k."""
    elements = folner_enumerate(k)
    return fsum_complex(evaluate_on_exponents(f, e.as_dict()) for e in elements) / len(
        elements
    )


# --------------------------------------------------------------------------
# divisor statistics
# --------------------------------------------------------------------------


def _divisor_frequency(
    form: BinaryQuadraticForm, q: int, a: int, b: int, n: int, hit, threads: int = 1
) -> float:
    """Frequency over [n]^2 of hit(P(q*m+a, q*n+b)), where hit maps an array
    of form values, int64 or Python ints as `_grid._lattice` picks, to a
    boolean mask."""
    u_of, w = _lattice([], [form], q, a, b, n)

    def tile_sums(rows: np.ndarray) -> tuple[int]:  # exact integer counts
        return (int(np.count_nonzero(hit(form.grid_values(u_of(rows), w)))),)

    return striped_complex_mean(tiled_block(tile_sums, n), n, threads)[0]


def _check_primes(p: int, p2: int) -> None:
    for prime in {p, p2}:
        if not is_prime(prime):
            raise DomainError(f"exact divisibility statistics need primes, got {prime}")


def divisor_stat_exact(
    form: BinaryQuadraticForm, q: int, a: int, b: int, p: int, p2: int, n: int,
    threads: int = 1,
) -> float:
    """Frequency over [n]^2 of exact divisibility of P(q m + a, q n + b) by
    both primes p and p2 (a single condition when p == p2).  A p that is not
    prime is refused."""
    _check_primes(p, p2)

    def hit(vals: np.ndarray) -> np.ndarray:
        mask = np.ones(vals.shape, dtype=bool)
        for prime in {p, p2}:
            mask &= (vals % prime == 0) & (vals % (prime * prime) != 0)
        return mask

    return _divisor_frequency(form, q, a, b, n, hit, threads)


def _prediction_factor(form: BinaryQuadraticForm, p: int) -> float:
    w1 = local_root_count(form, p)
    w2 = local_root_count(form, p * p)
    return (w1 / p - w2 / (p * p)) * (1.0 - 1.0 / p)


def divisor_stat_predicted(
    form: BinaryQuadraticForm, p: int, p2: int, q: int = 1
) -> float:
    """Main term of the exact-divisibility frequency.

    Only valid away from the exceptional primes (divisors of
    2 * q * disc * P(1, 0)); those, and a p that is not prime, raise
    DomainError naming the reason.
    """
    _check_primes(p, p2)
    if not form.irreducible:
        raise DomainError("predictions require an irreducible form")
    bad = 2 * q * form.discriminant * form.value(1, 0)
    for prime in {p, p2}:
        if bad % prime == 0:
            raise DomainError(
                f"prime {prime} divides 2*Q*disc*P(1,0) = {bad}: outside the predicted regime"
            )
    if p == p2:
        return _prediction_factor(form, p)
    return _prediction_factor(form, p) * _prediction_factor(form, p2)


def divisor_bound_probe(
    form: BinaryQuadraticForm, q: int, a: int, b: int, l: int, n: int, threads: int = 1
) -> tuple[float, float]:
    """(exact frequency of l | P(q m + a, q n + b), reference Q^2 / l).

    l must be a product of at most two primes; the pair monitors the
    large-divisor bound.
    """
    omega_l = sum(e for _, e in factorize(l).factors)
    if omega_l > 2:
        raise DomainError("l must be a product of at most two primes")
    return _divisor_frequency(form, q, a, b, n, lambda v: v % l == 0, threads), q * q / l
