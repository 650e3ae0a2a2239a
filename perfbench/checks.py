"""Independent recomputations and property checks for the benchmark's outputs.

Nothing here imports qpairs: every reference value is computed from the
definitions with the benchmark's own sieves and weights, so a wrong result in
the program cannot also appear in its check.  Each `check_*` function takes
the program's output text and returns a list of problems (empty when the
output is right).
"""

from __future__ import annotations

import csv
import io
import json
import math
from math import isqrt

import numpy as np

# the forms of the grid workloads: P1 = m^2 + 2n^2, P2 = 2mn
P1 = (1, 0, 2)
P2 = (0, 2, 0)


def form_value(form, u, w):
    alpha, beta, gamma = form
    return alpha * u * u + beta * u * w + gamma * w * w


# --------------------------------------------------------------------------
# reference computations
# --------------------------------------------------------------------------


def prime_array(limit: int) -> np.ndarray:
    """Primes <= limit by a numpy sieve of Eratosthenes."""
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite)


def liouville_table(limit: int) -> np.ndarray:
    """lambda(n) for 0 <= n <= limit (0 at 0) from smallest prime factors.

    lambda(n) = -lambda(n / spf(n)); n / spf(n) < n, so filling the dyadic
    blocks [2^j, 2^(j+1)) in order only ever reads finished entries.
    """
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    idx = np.arange(limit + 1, dtype=np.int64)
    spf = np.where(spf == 0, idx, spf)
    lam = np.zeros(limit + 1, dtype=np.int64)
    lam[1] = 1
    lo = 2
    while lo <= limit:
        block = idx[lo : min(2 * lo, limit + 1)]
        lam[block] = -lam[block // spf[block]]
        lo *= 2
    return lam


def trapezoid_weight(v1, v2, delta: float) -> np.ndarray:
    """Bump of half-width delta (plateau delta/2) at the circle point of
    log(v1/v2) / 2pi, zero where either value is nonpositive."""
    pos = (v1 > 0) & (v2 > 0)
    ratio = np.where(pos, v1, 1.0) / np.where(pos, v2, 1.0)
    turns = np.log(ratio) / (2 * math.pi)
    turns = np.remainder(turns + 0.5, 1.0) - 0.5
    bump = np.minimum(1.0, np.maximum(0.0, 2.0 - 2.0 * np.abs(turns) / delta))
    return np.where(pos, bump, 0.0)


def _grid(n: int):
    r = np.arange(1, n + 1, dtype=np.int64)
    return r[:, None], r[None, :]


def weighted_liouville_average(n: int, delta: float) -> float:
    """sum w(m,n) lambda(P1(m+1,n)) lambda(P2(m+1,n)) / sum w(m,n) over [n]^2."""
    m, k = _grid(n)
    wgt = trapezoid_weight(
        form_value(P1, m, k).astype(np.float64), form_value(P2, m, k).astype(np.float64), delta
    )
    v1 = form_value(P1, m + 1, k)
    v2 = form_value(P2, m + 1, k)
    lam = liouville_table(int(max(v1.max(), v2.max())))
    return float(np.sum(wgt * lam[v1] * lam[v2]) / np.sum(wgt))


def mean_weight(n: int, delta: float) -> tuple[float, float]:
    """(mean weight over [n]^2, midpoint Riemann sum over the unit square)."""
    m, k = _grid(n)
    grid = trapezoid_weight(
        form_value(P1, m, k).astype(np.float64), form_value(P2, m, k).astype(np.float64), delta
    )
    x = (m - 0.5) / n
    y = (k - 0.5) / n
    riemann = trapezoid_weight(form_value(P1, x, y), form_value(P2, x, y), delta)
    return float(grid.mean()), float(riemann.mean())


def archimedean_probe(n: int, delta: float, t: float, k: int) -> float:
    """Mean over Q in the Folner box at level k of
    Re sum w(m,n) f(P1(Qm+1,Qn)) conj f(P2(Qm+1,Qn)) / sum w(m,n), f = n^{it}."""
    if k != 2:
        raise ValueError("the box is written out for k = 2 only")
    m, j = _grid(n)
    wgt = trapezoid_weight(
        form_value(P1, m, j).astype(np.float64), form_value(P2, m, j).astype(np.float64), delta
    )
    values = []
    for q in (2**3, 2**4):  # primes <= 2 with exponents in (2, 4]
        u, w = q * m + 1, q * j
        ratio = form_value(P1, u, w).astype(np.float64) / form_value(P2, u, w).astype(np.float64)
        values.append(float(np.sum(wgt * np.cos(t * np.log(ratio))) / np.sum(wgt)))
    return sum(values) / len(values)


def distance_profile(ys, form_sum_of_squares: bool) -> list[float]:
    """Distance of Liouville from 1 at each cutoff: sqrt(fsum 2*c(p)/p) where
    c(p) = 1, or the root count of m^2 + n^2 mod p: 1 + (-1/p), c(2) = 1."""
    primes = prime_array(int(max(ys)))
    out = []
    for y in ys:
        ps = primes[primes <= y]
        if form_sum_of_squares:
            omega = np.where(ps % 4 == 1, 2.0, 0.0)
            omega[ps == 2] = 1.0
        else:
            omega = np.ones(len(ps))
        out.append(math.sqrt(math.fsum((2.0 * omega / ps).tolist())))
    return out


def gaussian_regular(a: int, b: int, c_bound: int, box: int) -> bool:
    """Box-contraction regularity of z = a + b*i in Z[i], by brute force.

    For every lattice point v = m + n*i != 0 with |m|, |n| <= box and z | v,
    the quotient w = v/z must satisfy max(|w|) <= C * max(|m|, |n|) / sqrt(N(z)).
    """
    r = np.arange(-box, box + 1, dtype=np.int64)
    m, n = r[:, None], r[None, :]
    k = a * a + b * b
    re = a * m + b * n  # v * conj(z)
    im = a * n - b * m
    divisible = (re % k == 0) & (im % k == 0) & ((m != 0) | (n != 0))
    coord = np.maximum(np.abs(re // k), np.abs(im // k))
    size = np.maximum(np.maximum(np.abs(m), np.abs(n)), 1)
    return bool(np.all(~divisible | (coord * coord * k <= c_bound * c_bound * size * size)))


def odd_part_color(values: np.ndarray, ell: int) -> np.ndarray:
    """Color of n: its odd part mod 2^ell."""
    v = np.asarray(values, dtype=np.int64).copy()
    while True:
        even = v % 2 == 0
        if not even.any():
            return v % (1 << ell)
        v[even] //= 2


def solutions_3_5_30(bound: int) -> np.ndarray:
    """All (x, y) with 1 <= x, y <= bound and 3x^2 + 5y^2 = 30z^2 for an integer z.

    5 | 3x^2 forces 5 | x, so x runs over multiples of 5 and z over
    1..sqrt((3 + 5) bound^2 / 30); y is read off 5y^2 = 30z^2 - 3x^2.
    """
    xs = np.arange(5, bound + 1, 5, dtype=np.int64)
    zs = np.arange(1, isqrt(8 * bound * bound // 30) + 2, dtype=np.int64)
    found = []
    for lo in range(0, len(xs), 200):
        x = xs[lo : lo + 200, None]
        rest = 30 * zs[None, :] ** 2 - 3 * x * x
        y2 = np.where((rest > 0) & (rest % 5 == 0), rest // 5, 0)
        y = np.rint(np.sqrt(y2)).astype(np.int64)
        ok = (y2 > 0) & (y * y == y2) & (y <= bound)
        i, j = np.nonzero(ok)
        found.append(np.stack([x[i, 0], y[i, j]], axis=1))
    return np.concatenate(found)


# --------------------------------------------------------------------------
# output parsers
# --------------------------------------------------------------------------


def parse_csv_complex(text: str) -> complex:
    """The CLI's CSV complex: repr(real) + '+' + repr(imag) + 'j'."""
    body = text[:-1] if text.endswith("j") else text
    for cut in range(1, len(body)):
        if body[cut] == "+" and body[cut - 1] not in "eE":
            return complex(float(body[:cut]), float(body[cut + 1 :]))
    raise ValueError(f"not a CLI complex: {text!r}")


def json_rows(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# --------------------------------------------------------------------------
# checks on CLI outputs
# --------------------------------------------------------------------------


def check_sweep(text: str, n_values, reference: dict[int, float]) -> list[str]:
    """CSV sweep of ldelta over n: one row per n, |value| <= 1 everywhere
    (nonnegative weights, |f| <= 1), and the rows in `reference` recomputed."""
    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["n"]) for r in rows] != list(n_values):
        return [f"sweep rows {[r.get('n') for r in rows]} != n values {list(n_values)}"]
    for r in rows:
        value = parse_csv_complex(r["value"])
        if not abs(value) <= 1.0:
            problems.append(f"n={r['n']}: |value| = {abs(value)} > 1")
        if abs(abs(value) - float(r["abs"])) > 1e-15:
            problems.append(f"n={r['n']}: abs column {r['abs']} != |value| {abs(value)}")
        if int(r["n"]) in reference and not _close(value.real, reference[int(r["n"])], 1e-12):
            problems.append(
                f"n={r['n']}: value {value.real!r} != recomputed {reference[int(r['n'])]!r}"
            )
        if value.imag != 0.0:
            problems.append(f"n={r['n']}: a real function gave imaginary part {value.imag!r}")
    return problems


def check_ldelta(text: str, reference: float) -> list[str]:
    """One ldelta row of a real function: real, |value| <= 1, recomputed."""
    (row,) = json_rows(text)
    value = complex(row["value"]["re"], row["value"]["im"])
    problems = []
    if not abs(value) <= 1.0:
        problems.append(f"ldelta value {value} outside the unit disk")
    if value.imag != 0.0 or not _close(value.real, reference, 1e-12):
        problems.append(f"ldelta value {value!r} != recomputed {reference!r}")
    return problems


def check_weights(text: str, n: int, reference: tuple[float, float] | None) -> list[str]:
    """Mean weight: grid and Riemann means in (0, 1], agreement = |grid - riemann|
    and within 8/n (both are n-point rules for the same scale-invariant
    integrand); with a reference, both means recomputed."""
    (row,) = json_rows(text)
    grid, riemann, agreement = row["grid"], row["riemann"], row["agreement"]
    problems = []
    for name, value in (("grid", grid), ("riemann", riemann)):
        if not 0.0 < value <= 1.0:
            problems.append(f"{name} mean {value} outside (0, 1]")
    if abs(agreement - abs(grid - riemann)) > 1e-15:
        problems.append(f"agreement {agreement} != |grid - riemann|")
    if not abs(grid - riemann) <= 8.0 / n:
        problems.append(f"|grid - riemann| = {abs(grid - riemann)} > 8/n at n={n}")
    if reference is not None:
        for name, got, want in (("grid", grid, reference[0]), ("riemann", riemann, reference[1])):
            if not _close(got, want, 1e-12):
                problems.append(f"{name} mean {got!r} != recomputed {want!r}")
    return problems


def check_probe(text: str, reference: float | None) -> list[str]:
    """Folner-averaged real part: |value| <= 1; with a reference, recomputed."""
    (row,) = json_rows(text)
    value = row["value"]
    problems = []
    if not abs(value) <= 1.0:
        problems.append(f"probe value {value} outside [-1, 1]")
    if reference is not None and not _close(value, reference, 1e-9):
        problems.append(f"probe value {value!r} != recomputed {reference!r}")
    return problems


def check_profile(text: str, ys, reference: list[float]) -> list[str]:
    rows = json_rows(text)
    if [r["y"] for r in rows] != [float(y) for y in ys]:
        return [f"profile cutoffs {[r['y'] for r in rows]} != {list(ys)}"]
    return [
        f"y={r['y']:g}: distance {r['value']!r} != recomputed {want!r}"
        for r, want in zip(rows, reference)
        if not _close(r["value"], want, 1e-12)
    ]


def check_distance(text: str, reference: float) -> list[str]:
    (row,) = json_rows(text)
    if not _close(row["value"], reference, 1e-12):
        return [f"distance {row['value']!r} != recomputed {reference!r}"]
    return []


def check_regular(text: str, reference: bool) -> list[str]:
    (row,) = json_rows(text)
    if row["regular"] is not reference:
        return [f"regular = {row['regular']}, brute force says {reference}"]
    return []


def check_coloring(text: str, solutions: np.ndarray, ell: int) -> list[str]:
    """Solution count recounted; no pair x != y colored alike, by the
    benchmark's own coloring and by the program's report."""
    (row,) = json_rows(text)
    problems = []
    if row["solutions"] != len(solutions):
        problems.append(f"solutions {row['solutions']} != recounted {len(solutions)}")
    x, y = solutions[:, 0], solutions[:, 1]
    mono = int(np.count_nonzero((x != y) & (odd_part_color(x, ell) == odd_part_color(y, ell))))
    if mono or row["monochromatic"] != 0 or row["first_counterexample"] is not None:
        problems.append(
            f"monochromatic pairs: program {row['monochromatic']}, recounted {mono}"
        )
    return problems


def check_reruns(outputs: list[bytes]) -> list[str]:
    """Reruns of one command must reproduce the first run's bytes."""
    return [
        f"round {i + 1} output differs from round 1"
        for i, out in enumerate(outputs)
        if out != outputs[0]
    ][:1]
