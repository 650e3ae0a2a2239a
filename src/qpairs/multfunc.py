"""Multiplicative functions on Z (extended evenly), Dirichlet characters,
Archimedean characters n^{it}, and the pretentious prime sums: a squared
distance is exactly minus the real part of a concentration exponent, as both
sum the terms of `_pretentious_term` by `arith.fsum_complex`.

A MultiplicativeFunction is a rule on prime powers with values in the closed
unit disk, evaluated through factorization.  Functions are extended to all of
Z by f(0) = 0 and f(-n) = f(n).  Instances are immutable after construction
and safe to share across threads.

Evaluation hints: grid experiments need f at millions of form values, where
per-value factorization is hopeless.  Each built-in carries a structural hint
of one of two shapes: the Liouville sign sieve, or chi(n) * n^{it} with
finitely many prime values replaced, built and checked by one constructor
(`_periodic`).  `evaluate_many` returns the Liouville function as int8
(unpacked from the cached table of signs, one bit per entry) and every other
function as complex128, and prime sums read f at arrays of primes from the
same hints (`prime_values`).  The scalar path never consults them.
"""

from __future__ import annotations

import bisect
import cmath
import math
import operator
import sys
import threading
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .arith import _TERM_CHUNK, _all_prime, _prime_array, factorize, fsum_complex, sieve_primes
from .caps import caps
from .errors import DomainError, ResourceError

# --------------------------------------------------------------------------
# roots of unity, snapped at quarter turns so real characters are exact
# --------------------------------------------------------------------------

_QUARTERS = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


def root_of_unity(k: int, n: int) -> complex:
    """exp(2*pi*i*k/n), exact at multiples of a quarter turn."""
    k %= n
    if (4 * k) % n == 0:
        return _QUARTERS[4 * k // n]
    return cmath.exp(2j * cmath.pi * k / n)


# --------------------------------------------------------------------------
# Dirichlet characters
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod q as a full value table (0 off the units)."""

    q: int
    table: tuple[complex, ...]
    principal: bool
    order: int
    label: str

    def __call__(self, n: int) -> complex:
        return self.table[n % self.q]

    def value_array(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.complex128)


def _unit_group_generators(q: int) -> list[tuple[int, int]]:
    """Generators (g, order) of the cyclic factors of (Z/qZ)*, via CRT lifts."""
    gens: list[tuple[int, int]] = []
    for p, e in factorize(q).factors if q > 1 else []:
        pe = p**e
        rest = q // pe
        if p == 2:
            if e == 1:
                continue
            local = [(pe - 1, 2)] if e == 2 else [(pe - 1, 2), (5, 1 << (e - 2))]
        else:
            phi = pe // p * (p - 1)
            # brute-force primitive root mod p**e; fine for q <= the modulus cap
            qfac = [r for r, _ in factorize(phi).factors]
            g = next(
                g
                for g in range(2, pe)
                if g % p != 0 and all(pow(g, phi // r, pe) != 1 for r in qfac)
            )
            local = [(g, phi)]
        for g, order in local:
            if rest == 1:
                gens.append((g % q, order))
            else:
                # lift: = g mod p**e, = 1 mod q/p**e
                inv = pow(pe, -1, rest)
                lifted = (g * rest * pow(rest, -1, pe) + pe * inv) % q
                gens.append((lifted, order))
    return gens


def dirichlet_characters(q: int) -> list[DirichletCharacter]:
    """The full dual group of (Z/qZ)*, principal character first.

    Characters are indexed lexicographically by their exponent tuple on the
    generators of the cyclic factors; `char:q:index` uses this order.
    """
    if q <= 0:
        raise DomainError("modulus must be positive")
    if q > caps().dirichlet_modulus:
        raise ResourceError(f"modulus {q} exceeds cap {caps().dirichlet_modulus}")
    gens = _unit_group_generators(q)
    orders = [s for _, s in gens]

    # discrete logs of every unit, by walking the generator box
    dlog: dict[int, tuple[int, ...]] = {1 % q: tuple([0] * len(gens))}
    units = [1 % q]
    for i, (g, s) in enumerate(gens):
        new_units = list(units)
        for u in units:
            x = u
            for k in range(1, s):
                x = x * g % q
                vec = list(dlog[u])
                vec[i] = k
                dlog[x] = tuple(vec)
                new_units.append(x)
        units = new_units

    chars: list[DirichletCharacter] = []
    exps = [tuple()]
    for s in orders:
        exps = [e + (k,) for e in exps for k in range(s)]
    for idx, cvec in enumerate(sorted(exps)):
        table = [0j] * q
        for u, vec in dlog.items():
            val = 1 + 0j
            for c, v, s in zip(cvec, vec, orders):
                val *= root_of_unity(c * v, s)
            table[u] = val
        order = 1
        for c, s in zip(cvec, orders):
            if c:
                order = order * (s // gcd(c, s)) // gcd(order, s // gcd(c, s))
        chars.append(
            DirichletCharacter(
                q=q,
                table=tuple(table),
                principal=all(c == 0 for c in cvec),
                order=order,
                label=f"char:{q}:{idx}",
            )
        )
    return chars


TRIVIAL_CHARACTER = dirichlet_characters(1)[0]  # the character mod 1: chi(n) = 1


@dataclass(frozen=True)
class TwistData:
    """An Archimedean exponent together with a Dirichlet character."""

    t: float
    chi: DirichletCharacter


# --------------------------------------------------------------------------
# multiplicative functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalHint:
    """Structural shape used by evaluate_many and prime_values; never affects
    scalar results.

    kind:
      'liouville'  completely multiplicative +-1 sign, sieveable
      'periodic'   chi(n) * n^{it} with overrides at finitely many primes
    """

    kind: str
    chi: DirichletCharacter = TRIVIAL_CHARACTER
    t: float = 0.0
    overrides: Mapping[int, complex] = field(default_factory=dict)


@dataclass(frozen=True)
class MultiplicativeFunction:
    description: str
    prime_power_rule: Callable[[int, int], complex]
    direct_rule: Optional[Callable[[int], complex]] = None
    hint: Optional[EvalHint] = None

    def at_prime(self, p: int) -> complex:
        return complex(self.prime_power_rule(p, 1))

    def __call__(self, n: int) -> complex:
        return evaluate(self, n)


def evaluate(f: MultiplicativeFunction, n: int) -> complex:
    """f at an integer: 0 at 0, even extension, product over prime powers."""
    if n == 0:
        return 0j
    n = abs(n)
    if f.direct_rule is not None:
        return complex(f.direct_rule(n))
    if n == 1:
        return 1 + 0j
    out = 1 + 0j
    for p, e in factorize(n).factors:
        out *= f.prime_power_rule(p, e)
        if out == 0:
            return 0j
    return out


def evaluate_on_exponents(f: MultiplicativeFunction, exponents: Mapping[int, int]) -> complex:
    """f at prod p^{e_p} without expanding the integer.

    Equals evaluate(f, prod) whenever the product is representable; intended
    for Folner elements whose integer values are astronomical.
    """
    for p, e in exponents.items():
        if e < 1:
            raise DomainError("exponents must be >= 1")
    if f.hint is not None and f.hint == EvalHint("periodic", t=f.hint.t):  # n^{it}
        logn = math.fsum(e * math.log(p) for p, e in exponents.items())
        return cmath.exp(1j * f.hint.t * logn)
    out = 1 + 0j
    for p in sorted(exponents):
        out *= f.prime_power_rule(p, exponents[p])
        if out == 0:
            return 0j
    return out


# --- bulk evaluation --------------------------------------------------------

# Entries per segment of the Liouville sieve: a segment's int16 accumulator
# (2 MB) and its bool mask stay near the L2 cache, and each prime power costs
# one slice update per segment.  A multiple of 8, so that every segment fills
# whole bytes of the packed table.
_LIOUVILLE_SEGMENT = 1 << 20

# Scale S of the rounded base-2 logarithms that the sieve sums.
_LOG_SCALE = 256

# The wheel 2**4 * 3**2 * 5 * 7 * 11: every segment starts from the periodic
# sums of these prime powers' terms, and the sieve adds only the rest.
_WHEEL_POWERS = {2: 4, 3: 2, 5: 1, 7: 1, 11: 1}
_WHEEL = math.prod(p**e for p, e in _WHEEL_POWERS.items())  # 55,440
_wheel: np.ndarray | None = None  # two periods as int16, built by the first sieve

# The signs of lambda, packed: bit n % 8 of byte n // 8 is set exactly where
# lambda(n) = -1.  It covers 8 * len(table) entries.
_liouville_table: np.ndarray | None = None
_liouville_lock = threading.Lock()


def _log_term(p: int) -> int:
    """2*round(S*log2 p) + 1: added once for each power of p dividing n."""
    return 2 * round(_LOG_SCALE * math.log2(p)) + 1


def _wheel_pattern() -> np.ndarray:
    """The wheel's sums over two periods, so that one period from any
    offset is one slice."""
    global _wheel
    if _wheel is None:
        pattern = np.zeros(2 * _WHEEL, dtype=np.int16)
        for p, e in _WHEEL_POWERS.items():
            for k in range(1, e + 1):
                pattern[:: p**k] += _log_term(p)
        _wheel = pattern
    return _wheel


def _liouville_segments(out: np.ndarray, start: int, primes: Sequence[int]) -> None:
    """Pack the signs of lambda(n) for start <= n < start + 8 * len(out) into
    the uint8 array out: bit (n - start) % 8 of out[(n - start) // 8] is 1
    exactly where lambda(n) = -1, and 0 at n = 0.  Sieved in segments aligned
    to multiples of _LIOUVILLE_SEGMENT.

    start must be a multiple of 8, primes must hold every prime
    <= isqrt(start + 8 * len(out) - 1), ascending, and start + 8 * len(out)
    must not exceed 2**63.  In a segment [lo, hi), each power p**e < hi of a
    prime p <= isqrt(hi - 1) adds _log_term(p) to the int16 accumulator of
    its multiples; the wheel's powers come prefilled.  A sum is
    2*A + Omega over the sieved prime factors of n, with A within Omega/2 of
    S*log2 of their product m, so its low bit is their parity.

    What the sieve leaves of n is 1 or one prime P > isqrt(hi - 1) >= sqrt(n),
    so m = n or m < sqrt(n).  For n in [2**k, 2**(k+1)), m = n puts half the
    sum at S*k - k/2 or above, and m < sqrt(n) puts it below
    (S + 1)*(k + 1)/2, as Omega(m) <= log2 m.  The threshold (S - 1)*k lies
    in that gap for k >= 2; for n < 4 half the sum is 0 if m = 1 and at
    least S otherwise, against a threshold of 0 or S - 1.  So one more prime
    factor is counted exactly where half the sum is below the threshold.  No
    sum exceeds 2*S*log2 n + 2*Omega(n) <= 2*256*63 + 126 < 2**15.
    """
    wheel = _wheel_pattern()
    terms = [_log_term(p) for p in primes]
    end = start + 8 * len(out)
    size = min(end - start, _LIOUVILLE_SEGMENT)
    acc = np.empty(size, dtype=np.int16)
    flips = np.empty(size, dtype=bool)
    lo = start
    while lo < end:
        hi = min(end, lo - lo % _LIOUVILLE_SEGMENT + _LIOUVILLE_SEGMENT)
        seg, flip = acc[: hi - lo], flips[: hi - lo]
        offset = lo % _WHEEL
        for i in range(0, hi - lo, _WHEEL):
            chunk = seg[i : i + _WHEEL]
            chunk[...] = wheel[offset : offset + len(chunk)]
        for i in range(bisect.bisect_right(primes, math.isqrt(hi - 1))):
            p, d = primes[i], terms[i]
            pe = p ** (_WHEEL_POWERS.get(p, 0) + 1)
            while pe < hi:
                seg[-lo % pe :: pe] += d
                pe *= p
        n = lo
        while n < hi:
            k = max(n, 1).bit_length() - 1
            top = min(hi, 2 << k)
            np.less(seg[n - lo : top - lo], 2 * (_LOG_SCALE - 1) * k, out=flip[n - lo : top - lo])
            n = top
        seg += flip
        np.bitwise_and(seg, 1, out=flip, casting="unsafe")  # packbits is fastest on bool
        out[(lo - start) // 8 : (hi - start) // 8] = np.packbits(flip, bitorder="little")
        lo = hi
    if start == 0 and len(out):
        out[0] &= 0xFE  # lambda(0) = 0 is not -1


def _liouville_sieve(limit: int) -> np.ndarray:
    """The packed signs of lambda (see _liouville_segments) for n <= limit,
    as a uint8 table of limit // 8 + 1 bytes or more, by a segmented
    prime-power sieve.

    The table grows geometrically and is kept; growth copies the old bytes,
    holding both tables until the new one is filled, and sieves only the new
    entries.  Grid experiments call `prime_value_table` once with their value
    bound up front, so their stripes only read it.  Reads of a long enough
    table take no lock; growth is serialized.
    """
    global _liouville_table
    table = _liouville_table
    if table is not None and 8 * len(table) > limit:
        return table
    if limit > caps().value_sieve_limit:
        raise ResourceError(f"value sieve {limit} exceeds cap {caps().value_sieve_limit}")
    with _liouville_lock:
        old = _liouville_table
        if old is not None and 8 * len(old) > limit:
            return old
        done = 0 if old is None else len(old)
        if old is not None:
            limit = min(max(limit, 16 * done), caps().value_sieve_limit)
        table = np.empty(limit // 8 + 1, dtype=np.uint8)
        if old is not None:
            table[:done] = old
        _liouville_segments(table[done:], 8 * done, sieve_primes(max(2, math.isqrt(8 * len(table) - 1))))
        _liouville_table = table
    return table


def prime_value_table(f: MultiplicativeFunction, bound: int) -> None:
    """Ensure any value table f needs covers integers up to bound."""
    if f.hint is not None and f.hint.kind == "liouville":
        _liouville_sieve(max(2, int(bound)))


def _strip_valuations(values: np.ndarray, p: int, val: complex) -> tuple[np.ndarray, np.ndarray]:
    """Divide out all powers of p, returning (stripped, val**e correction)."""
    w = values.copy()
    corr = np.ones(len(w), dtype=np.complex128)
    mask = w % p == 0
    while mask.any():
        w[mask] = w[mask] // p
        corr[mask] = np.multiply(corr[mask], val)  # not in place: see _grid
        mask = w % p == 0
    return w, corr


def _unit_power(absv: np.ndarray, t: float) -> np.ndarray:
    """|x|^{it} over an array of absolute values, with 0^{it} = 1.

    cos and sin of theta = t ln x, written into the real and imaginary parts.
    With glibc's libm these are the bits of exp(1j * t * ln x), whose
    argument has imaginary part exactly theta; tests compare the two.
    """
    theta = absv.astype(np.float64)
    theta[absv == 0] = 1.0
    np.log(theta, out=theta)
    theta *= t
    out = np.empty(absv.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def evaluate_many(f: MultiplicativeFunction, values: np.ndarray) -> np.ndarray:
    """Vectorized f over an integer array (any sign; zeros map to 0).

    Liouville values come back as int8, +-1 and 0 at 0: each is one bit of
    the packed sign table, gathered by byte and shifted out.  Every other
    function's come back as complex128.  Uses the structural hint when
    present; otherwise falls back to per-value factorization, which is only
    viable for small batches.
    """
    values = np.asarray(values)
    absv = np.abs(values)
    hint = f.hint
    if hint is None:
        return np.array([evaluate(f, int(v)) for v in values], dtype=np.complex128)
    if hint.kind == "liouville":
        table = _liouville_sieve(max(2, int(absv.max()) if absv.size else 0))
        idx = absv.astype(np.int64, copy=False)
        bits = table[idx >> 3]
        np.right_shift(bits, np.bitwise_and(idx, 7, dtype=np.uint8, casting="unsafe"), out=bits)
        bits &= 1
        lam = bits.view(np.int8)
        lam *= -2  # 1 where lambda = 1, -1 where lambda = -1
        lam += 1
        lam[idx == 0] = 0
        return lam

    # chi(n) * n^{it} with overrides, in stages: strip the overrides, gather
    # chi, multiply by n^{it}; a stage whose data asks for nothing is skipped.
    # Products are np.multiply calls with fixed operands and fresh outputs,
    # so no bit depends on the batch size (see _grid).
    flat = absv.reshape(-1)
    w, out = flat, None
    if hint.overrides:
        # zeros would never leave the stripping loop; they are masked to 0 below
        w = np.where(flat == 0, 1, flat).astype(object if flat.dtype == object else np.int64)
        out = np.ones(flat.shape, dtype=np.complex128)
        top = int(flat.max(initial=0))  # larger primes divide no value, and may not fit int64
        for p, val in sorted(item for item in hint.overrides.items() if item[0] <= top):
            w, c = _strip_valuations(w, p, val)
            out = np.multiply(out, c)
    if hint.chi.q != 1:
        vals = hint.chi.value_array()[(w % hint.chi.q).astype(np.int64)]
        out = vals if out is None else np.multiply(vals, out)
    if hint.t != 0.0:
        power = _unit_power(flat, hint.t)
        out = power if out is None else np.multiply(out, power)
    out = (np.ones(flat.shape, dtype=np.complex128) if out is None else out).reshape(absv.shape)
    out[absv == 0] = 0j
    return out


# --------------------------------------------------------------------------
# built-ins
# --------------------------------------------------------------------------


def liouville() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        description="liouville",
        prime_power_rule=lambda p, k: (-1.0) ** k,
        hint=EvalHint(kind="liouville"),
    )


def _check_unit_disk(values: Sequence[complex]) -> None:
    if not (np.abs(np.asarray(values, dtype=np.complex128)) <= 1 + 1e-12).all():  # NaN compares False
        raise DomainError("values must stay in the unit disk")


def _periodic(
    description: str, chi: DirichletCharacter, t: float, overrides: Mapping[int, complex]
) -> MultiplicativeFunction:
    """chi(n) * n^{it} with its values at the primes of overrides replaced.

    The constructor of every built-in but liouville, and the only check of t
    and of the overrides: keys must be prime integers, values in the closed
    unit disk.
    f(p^k) = (base * p^{it})**k, or base**k at t = 0, where base is the
    override at p or else chi(p).  Without overrides f also has the direct
    rule chi(n) * n^{it}; n^{it} alone (chi mod 1) takes one exponential of
    t*k*ln p or t*ln n, so no rounding accumulates.
    """
    if not (math.isfinite(t) and abs(t) * 710 <= sys.float_info.max):  # ln n < 710 at every float n
        raise DomainError(f"t must be finite with |t| * 710 <= {sys.float_info.max}, got {t}")
    try:
        ov = {operator.index(p): complex(v) for p, v in overrides.items()}
    except TypeError as exc:
        raise DomainError(f"overrides must map integers to numbers: {exc}") from exc
    _check_unit_disk(list(ov.values()))
    if ov and not _all_prime(ov):
        raise DomainError("override keys must be primes")
    power = lambda n: cmath.exp(1j * t * math.log(n))  # n^{it}
    if t == 0.0:
        rule, direct = (lambda p, k: ov.get(p, chi(p)) ** k), chi
    elif chi.q == 1 and not ov:
        rule, direct = (lambda p, k: cmath.exp(1j * t * k * math.log(p))), power
    else:
        rule = lambda p, k: (ov.get(p, chi(p)) * power(p)) ** k
        direct = lambda n: chi(n) * power(n)
    hint = EvalHint("periodic", chi, t, ov)
    return MultiplicativeFunction(description, rule, None if ov else direct, hint)


def one() -> MultiplicativeFunction:
    """The constant completely multiplicative function 1 (CLI name: principal)."""
    return _periodic("principal", TRIVIAL_CHARACTER, 0.0, {})


def archimedean(t: float) -> MultiplicativeFunction:
    """n^{it}, by one complex exponential of t*ln n: no rounding accumulates
    across prime factors, which makes the concentration identities exact."""
    return _periodic(f"arch:{t}", TRIVIAL_CHARACTER, t, {})


def character_function(chi: DirichletCharacter) -> MultiplicativeFunction:
    return _periodic(chi.label, chi, 0.0, {})


def twisted(chi: DirichletCharacter, t: float) -> MultiplicativeFunction:
    """chi * n^{it}; value 0 at primes dividing the modulus (chi = 0 there)."""
    return _periodic(f"twisted:{chi.q}:{chi.label.rsplit(':', 1)[-1]}:{t}", chi, t, {})


def character_extended(
    chi: DirichletCharacter, overrides: Mapping[int, complex], t: float = 0.0
) -> MultiplicativeFunction:
    """chi * n^{it} with the values at finitely many primes replaced,
    completely multiplicatively: f(p^k) = (override * p^{it})**k."""
    return _periodic(f"{chi.label}+overrides", chi, t, overrides)


def prime_patch(lo: int, hi: int, value: complex) -> MultiplicativeFunction:
    """value at primes in (lo, hi], 1 elsewhere; completely multiplicative."""
    value = complex(value)
    _check_unit_disk([value])  # before the prime table, which may be over its cap
    primes = _prime_array(max(2, hi))
    overrides = dict.fromkeys(primes[(lo < primes) & (primes <= hi)].tolist(), value)
    return _periodic(f"prime-patch:{lo}:{hi}:{value}", TRIVIAL_CHARACTER, 0.0, overrides)


def function_from_name(name: str) -> MultiplicativeFunction:
    """Resolve the CLI syntax: liouville | principal | char:q:i | arch:t |
    twisted:q:i:t | prime-patch:lo:hi:value."""
    parts = name.split(":")
    kind = parts[0]
    try:
        if kind == "liouville":
            return liouville()
        if kind == "principal":
            return one()
        if kind == "char":
            q, idx = int(parts[1]), int(parts[2])
            return character_function(dirichlet_characters(q)[idx])
        if kind == "arch":
            return archimedean(float(parts[1]))
        if kind == "twisted":
            q, idx, t = int(parts[1]), int(parts[2]), float(parts[3])
            return twisted(dirichlet_characters(q)[idx], t)
        if kind == "prime-patch":
            lo, hi = int(parts[1]), int(parts[2])
            return prime_patch(lo, hi, complex(parts[3]))
    except (IndexError, ValueError) as exc:
        raise DomainError(f"bad function spec {name!r}: {exc}") from exc
    raise DomainError(f"unknown function {name!r}")


# --------------------------------------------------------------------------
# additive functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AdditiveFunction:
    """h(mn) = h(m) + h(n) for coprime m, n; even extension to Z."""

    description: str
    prime_power_rule: Callable[[int, int], complex]
    support: Optional[tuple[int, ...]] = None  # primes with h(p) != 0, if known

    def at_prime(self, p: int) -> complex:
        return complex(self.prime_power_rule(p, 1))

    def __call__(self, n: int) -> complex:
        if n == 0:
            raise DomainError("additive functions are not defined at 0")
        n = abs(n)
        if n == 1:
            return 0j
        return sum((self.prime_power_rule(p, e) for p, e in factorize(n).factors), 0j)


def additive_from_prime_values(values: Mapping[int, complex], description: str = "custom") -> AdditiveFunction:
    """h supported on the given primes (h(p^k) = 0 for k >= 2)."""
    table = {int(p): complex(v) for p, v in values.items()}

    def rule(p: int, k: int) -> complex:
        return table.get(p, 0j) if k == 1 else 0j

    return AdditiveFunction(
        description=description, prime_power_rule=rule, support=tuple(sorted(table))
    )


# --------------------------------------------------------------------------
# prime-sum distances
# --------------------------------------------------------------------------


def _check_cutoffs(*cutoffs: float) -> None:
    if not all(-math.inf < c < math.inf for c in cutoffs):
        raise DomainError("prime-window cutoffs must be finite")


def _prime_window(x: float, y: float) -> np.ndarray:
    """The primes x < p <= y, ascending, as a read-only int64 array."""
    _check_cutoffs(x, y)
    if x > y:
        raise DomainError("need x <= y")
    if y > caps().sieve_limit:
        raise ResourceError("upper range exceeds the sieve cap")
    primes = _prime_array(max(2, int(y)))
    lo, hi = (primes.searchsorted(max(1, math.floor(c)), "right") for c in (x, y))
    return primes[lo:hi]


def prime_window_sum(term: Callable[[np.ndarray], np.ndarray], x: float, y: float) -> complex:
    """Exactly rounded sum of the terms of the primes x < p <= y.

    term maps an int64 array of primes to their float64 or complex128 terms.
    The one loop behind every prime-window sum: distances, additive norms,
    concentration exponents and predicted additive means.
    """
    primes = _prime_window(x, y)
    chunks = (primes[i : i + _TERM_CHUNK] for i in range(0, len(primes), _TERM_CHUNK))
    return fsum_complex(map(term, chunks))


def _cmul(a, b) -> np.ndarray:
    """a*b over complex arrays with CPython's rounding: the real part is
    ar*br - ai*bi and the imaginary part ar*bi + ai*br, each product
    rounded.  numpy's complex multiply may fuse them and move the last bit."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _prime_power_it(primes: np.ndarray, t: float) -> np.ndarray:
    """p^{it} = cos(t ln p) + i sin(t ln p): the bits of
    cmath.exp(1j * t * math.log(p)).  The logarithms come from math.log,
    which np.log does not match at every prime."""
    theta = np.fromiter(map(math.log, primes.tolist()), np.float64, len(primes))
    theta *= t
    out = np.empty(len(primes), dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _put_at_keys(out: np.ndarray, primes: np.ndarray, table: Mapping) -> np.ndarray:
    """Write table[p] into out at the primes that are keys of table."""
    limit = caps().sieve_limit
    keys = [k for k in table if 2 <= k <= limit]
    hits = np.flatnonzero(np.isin(primes, keys)) if keys else ()
    if len(hits):
        out[hits] = [table[p] for p in primes[hits].tolist()]
    return out


def prime_values(f: MultiplicativeFunction, primes: np.ndarray) -> np.ndarray:
    """f at each prime of an int64 array, as complex128, read from f's hint.

    Each value equals f.at_prime(p) up to the sign of a zero part, which no
    sum of the prime-window terms can see.  Without a hint, f.at_prime is
    called at each prime.
    """
    hint = f.hint
    if hint is None:
        return np.fromiter(map(f.at_prime, primes.tolist()), np.complex128, len(primes))
    if hint.kind == "liouville":
        return np.full(len(primes), -1.0, dtype=np.complex128)
    out = _put_at_keys(hint.chi.value_array()[primes % hint.chi.q], primes, hint.overrides)
    return _cmul(out, _prime_power_it(primes, hint.t)) if hint.t != 0.0 else out


def _unit_weights(primes: np.ndarray) -> np.ndarray:
    return np.ones(len(primes))


def _root_count_weights(form) -> Callable[[np.ndarray], np.ndarray]:
    """primes -> the local root counts of the form, as float64."""
    from .quadforms import local_root_counts

    return lambda primes: local_root_counts(form, primes).astype(np.float64)


def _pretentious_term(weights: Callable[[np.ndarray], np.ndarray], f, g) -> Callable:
    """primes -> c(p)/p * (f(p) conj g(p) - 1) for c = weights(primes), 0
    where c(p) = 0: the term of every distance and concentration exponent.
    Its real part is exactly minus c(p)/p * (1 - Re f(p) conj g(p))."""

    def term(primes: np.ndarray) -> np.ndarray:
        c = weights(primes)
        z = _cmul(prime_values(f, primes), np.conj(gv := prime_values(g, primes), out=gv))
        s = c / primes
        out = np.zeros(len(primes), dtype=np.complex128)
        np.multiply(s, z.real - 1.0, out=out.real, where=c != 0)
        np.multiply(s, z.imag, out=out.imag, where=c != 0)
        return out

    return term


def _distance(weights, f, g, x: float, y: float) -> float:
    term = _pretentious_term(weights, f, g)
    return math.sqrt(max(0.0, -prime_window_sum(lambda primes: term(primes).real, x, y).real))


def distance(f: MultiplicativeFunction, g: MultiplicativeFunction, x: float, y: float) -> float:
    """Prime-sum distance: sqrt of sum over x < p <= y of (1 - Re f(p) conj g(p)) / p."""
    return _distance(_unit_weights, f, g, x, y)


def distance_form(form, f: MultiplicativeFunction, g: MultiplicativeFunction, x: float, y: float) -> float:
    """Distance with each prime weighted by the local root count of the form."""
    return _distance(_root_count_weights(form), f, g, x, y)


def distance_weighted(
    c: Callable[[int], float] | Mapping[int, float],
    f: MultiplicativeFunction,
    g: MultiplicativeFunction,
    x: float,
    y: float,
) -> float:
    """Distance with arbitrary bounded nonnegative prime weights c(p)."""
    if isinstance(c, Mapping):
        table = {p: float(v) for p, v in c.items()}
        weights = lambda primes: _put_at_keys(np.zeros(len(primes)), primes, table)
    else:
        weights = lambda primes: np.fromiter(
            (float(c(p)) for p in primes.tolist()), np.float64, len(primes)
        )
    return _distance(weights, f, g, x, y)


def distance_profile(
    f: MultiplicativeFunction,
    g: MultiplicativeFunction,
    checkpoints: Sequence[float],
    form=None,
) -> list[tuple[float, float]]:
    """Partial-sum growth of the (optionally form-weighted) distance.

    Pretentiousness is a statement about the limit and is undecidable from
    finite data; this report of the distance at increasing cutoffs is the
    honest finite substitute.  Bounded profiles suggest pretentious behavior,
    steadily growing ones suggest the opposite; no boolean is offered.

    One pass: the real parts of the terms up to the largest cutoff are
    computed once into one float64 array, and each cutoff, in the given
    order, takes the exactly rounded sum of its prefix, so every entry equals
    distance (or distance_form) at that cutoff.
    """
    ys = [float(y) for y in checkpoints]
    if not ys:
        return []
    _check_cutoffs(*ys)
    if min(ys) < 1:
        raise DomainError("need x <= y")
    weights = _unit_weights if form is None else _root_count_weights(form)
    term = _pretentious_term(weights, f, g)
    primes = _prime_window(1, max(ys))
    terms = np.empty(len(primes))
    for i in range(0, len(primes), _TERM_CHUNK):
        terms[i : i + _TERM_CHUNK] = term(primes[i : i + _TERM_CHUNK]).real
    sums = (fsum_complex([terms[: primes.searchsorted(math.floor(y), "right")]]) for y in ys)
    return [(y, math.sqrt(max(0.0, -s.real))) for y, s in zip(ys, sums)]


def _additive_term(h: AdditiveFunction, term: Callable[[int], complex]) -> Callable:
    """primes -> term(p) where h(p) may be nonzero, 0 elsewhere.

    term(p) must vanish where h(p) does.  It is called once for each member
    of h's support, or at every prime when the support is not known.
    """
    if h.support is None:
        return lambda primes: np.fromiter(map(term, primes.tolist()), np.complex128, len(primes))
    limit = caps().sieve_limit
    table = {p: term(p) for p in h.support if 2 <= p <= limit}
    return lambda primes: _put_at_keys(np.zeros(len(primes), dtype=np.complex128), primes, table)


def distance_additive(h: AdditiveFunction, x: float, y: float) -> float:
    """sqrt of sum over x < p <= y of |h(p)|^2 / p (the additive-function norm)."""
    term = _additive_term(h, lambda p: abs(h.at_prime(p)) ** 2 / p)
    return math.sqrt(prime_window_sum(term, x, y).real)
