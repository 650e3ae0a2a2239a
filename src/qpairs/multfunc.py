"""Multiplicative functions on Z (extended evenly), Dirichlet characters,
Archimedean characters n^{it}, and the pretentious prime sums: a squared
distance is exactly minus the real part of a concentration exponent, as both
sum the terms of `_pretentious_term` by `arith.fsum_complex`.

A MultiplicativeFunction is a rule on prime powers with values in the closed
unit disk, evaluated through factorization.  Functions are extended to all of
Z by f(0) = 0 and f(-n) = f(n).  Instances are immutable after construction
and safe to share across threads.

A Dirichlet character is built alone: `dirichlet_character(q, index)` walks
the generators of (Z/qZ)* once, in O(q) time, and keeps its values as one
read-only complex128 table of q entries (16 B each), which the bulk paths
index directly.  `dirichlet_characters(q)` is the list of all phi(q) of them.

Evaluation hints: grid experiments need f at millions of form values, where
per-value factorization is hopeless.  Each built-in carries a structural hint
of one of two shapes: the Liouville sign sieve, or chi(n) * n^{it} with
finitely many prime values replaced (`_periodic`).  `evaluate_many` returns
the Liouville function as int8 (one bit per entry of the cached table of
signs) and every other function as complex128, multiplying by an override
only the values its prime divides (`arith._strip_prime`).  Prime sums read f
at arrays of primes from the same hints (`prime_values`); the scalar path
never consults them.  Overrides, additive functions and weight maps are each
one sorted `PrimeTable`, checked by one constructor and read by one
searchsorted over a window of primes, a walk of its keys up to a batch's
largest value, a scalar bisection, or a slice of its keys (no sieve).
"""

from __future__ import annotations

import bisect
import cmath
import math
import operator
import sys
import threading
import weakref
from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .arith import _TERM_CHUNK, _check_cutoffs, _check_sieve_limit, _check_weights, _check_window, _exact_parts
from .arith import _prime_window, _primes, _strip_prime, factorize, fsum_complex, is_prime, sieve_primes
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
    """A character mod q as a read-only complex128 table of its q values (0
    off the units).  Characters compare and hash by q, label, principal and
    order; the table is left out."""

    q: int
    table: np.ndarray = field(compare=False, repr=False)
    principal: bool
    order: int
    label: str

    def __call__(self, n: int) -> complex:
        return self.table.item(n % self.q)


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


def dirichlet_character(q: int, index: int) -> DirichletCharacter:
    """The character `char:q:index` alone, in O(q) time and 16 B per table
    entry.

    index in [0, phi(q)) is the exponent tuple (c_1, ..., c_r) on the
    generators g_i of the cyclic factors of (Z/qZ)*, read in mixed radix over
    their orders s_i, first generator most significant; 0 is the principal
    character.  One walk of the generator box gives the unit
    g_1^k_1 ... g_r^k_r the value 1 * e(c_1 k_1 / s_1) * ... * e(c_r k_r / s_r),
    multiplied in that order, k_i = 0 included.
    """
    if q <= 0:
        raise DomainError("modulus must be positive")
    if q > caps().dirichlet_modulus:
        raise ResourceError(f"modulus {q} exceeds cap {caps().dirichlet_modulus}")
    gens = _unit_group_generators(q)
    if not 0 <= index < math.prod(s for _, s in gens):
        raise DomainError(f"character index {index} outside [0, phi({q}))")
    exps, rest = [], index
    for _, s in reversed(gens):
        rest, c = divmod(rest, s)
        exps.insert(0, c)
    units, values = [1 % q], [1 + 0j]
    for (g, s), c in zip(gens, exps):
        powers = [pow(g, k, q) for k in range(s)]
        roots = [root_of_unity(c * k, s) for k in range(s)]
        units = [u * x % q for u in units for x in powers]
        values = [v * r for v in values for r in roots]
    table = np.zeros(q, dtype=np.complex128)
    table[units] = values
    table.flags.writeable = False
    order = math.lcm(*(s // gcd(c, s) for (_, s), c in zip(gens, exps)))
    return DirichletCharacter(q, table, not any(exps), order, f"char:{q}:{index}")


def dirichlet_characters(q: int) -> list[DirichletCharacter]:
    """dirichlet_character(q, index) for every index: the dual group of
    (Z/qZ)*, principal character first."""
    principal = dirichlet_character(q, 0)
    phi = np.count_nonzero(principal.table)  # 1 at the units, 0 elsewhere
    return [principal, *(dirichlet_character(q, i) for i in range(1, phi))]


TRIVIAL_CHARACTER = dirichlet_character(1, 0)  # the character mod 1: chi(n) = 1


@dataclass(frozen=True)
class TwistData:
    """An Archimedean exponent together with a Dirichlet character."""

    t: float
    chi: DirichletCharacter


# --------------------------------------------------------------------------
# multiplicative functions
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Values at finitely many primes: ascending keys (int64, or object if one
    is 2**63 or more) and their values, as read-only arrays that compare by
    contents.  Only `of` checks keys: built directly, they must be primes."""

    keys: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, table: Mapping, kind: type = complex) -> PrimeTable:
        """The table of a Mapping from primes to numbers converted by kind (complex or
        float).  Keys go through operator.index: 2.5, "3" and None are refused."""
        try:
            items = sorted((operator.index(p), kind(v)) for p, v in table.items())
        except TypeError as exc:
            raise DomainError(f"prime tables map integers to numbers: {exc}") from exc
        keys, values = np.array([p for p, _ in items], dtype=object), np.array([v for _, v in items], kind)
        if not all(map(is_prime, keys.tolist())):
            raise DomainError("prime table keys must be primes")
        keys = keys if len(keys) and keys[-1] >= 2**63 else keys.astype(np.int64)
        keys.flags.writeable = values.flags.writeable = False
        return cls(keys, values)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PrimeTable) and np.array_equal(self.keys, other.keys)
                and np.array_equal(self.values, other.values))

    def get(self, p: int, default):
        i = bisect.bisect_left(self.keys, p)
        return self.values.item(i) if i < len(self.keys) and self.keys[i] == p else default

    def put(self, out: np.ndarray, primes: np.ndarray) -> np.ndarray:
        """out with each value written where the int64 array primes holds its key."""
        keys = self.keys[: bisect.bisect_left(self.keys, 2**63)].astype(np.int64, copy=False)
        if len(keys):
            at = np.minimum(keys.searchsorted(primes), len(keys) - 1)
            hit = keys[at] == primes
            out[hit] = self.values[at[hit]]
        return out

    def window(self, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
        """The int64 keys x < p <= y and their values: all that a sum over a
        window (checked as _prime_window checks it) reads of the table."""
        _check_window(x, y)
        lo, hi = (bisect.bisect_right(self.keys, math.floor(c)) for c in (x, y))
        return self.keys[lo:hi].astype(np.int64, copy=False), self.values[lo:hi]


_NO_PRIMES = PrimeTable(np.zeros(0, np.int64), np.zeros(0, np.complex128))


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
    overrides: PrimeTable = field(default_factory=lambda: _NO_PRIMES)


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
    out = 1 + 0j
    for p, e in factorize(n).factors:
        out *= f.prime_power_rule(p, e)
        if out == 0:
            return 0j
    return out


def evaluate_on_exponents(f: MultiplicativeFunction, exponents: Mapping[int, int]) -> complex:
    """f at prod p^{e_p} without expanding the integer: evaluate(f, prod)
    where the product is representable, and meant for Folner elements whose
    integer values are astronomical."""
    if any(e < 1 for e in exponents.values()):
        raise DomainError("exponents must be >= 1")
    hint = f.hint
    if hint is not None and hint.kind == "periodic" and hint.chi.q == 1 and not len(hint.overrides.keys):
        logn = math.fsum(e * math.log(p) for p, e in exponents.items())
        return cmath.exp(1j * hint.t * logn)
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
        flat = [evaluate(f, int(v)) for v in values.reshape(-1)]
        return np.array(flat, dtype=np.complex128).reshape(values.shape)
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
    ov = hint.overrides
    if len(ov.keys):
        # zeros would never leave _strip_prime; they are masked to 0 below
        w = np.where(flat == 0, 1, flat).astype(object if flat.dtype == object else np.int64)
        out = np.ones(flat.shape, dtype=np.complex128)
        n = bisect.bisect_right(ov.keys, int(flat.max(initial=0)))  # larger primes divide no value
        for p, val in zip(ov.keys[:n].tolist(), ov.values[:n].tolist()):
            hits, exps = _strip_prime(w, p)
            power = np.ones(len(hits), dtype=np.complex128)
            for e in range(1, int(exps.max(initial=0)) + 1):
                power[exps >= e] = np.multiply(power[exps >= e], val)  # not in place: see _grid
            out[hits] = np.multiply(out[hits], power)
    if hint.chi.q != 1:
        vals = hint.chi.table[(w % hint.chi.q).astype(np.int64)]
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
    return MultiplicativeFunction("liouville", lambda p, k: (-1.0) ** k, hint=EvalHint("liouville"))


def _check_unit_disk(values: Sequence[complex]) -> None:
    """Refuse NaN and values off the closed unit disk, _TERM_CHUNK at a time."""
    for i in range(0, len(values), _TERM_CHUNK):
        chunk = np.asarray(values[i : i + _TERM_CHUNK], dtype=np.complex128)
        if not (np.abs(chunk) <= 1 + 1e-12).all():  # NaN compares False
            raise DomainError("values must stay in the unit disk")


def _periodic(description: str, chi: DirichletCharacter, t: float, ov=_NO_PRIMES) -> MultiplicativeFunction:
    """chi(n) * n^{it} with its values at the primes of the table ov replaced:
    the constructor of every built-in but liouville, and the only check of t
    and of the override values, which must lie in the closed unit disk.

    f(p^k) = (base * p^{it})**k, or base**k at t = 0, where base is the
    override at p or else chi(p).  Without overrides f also has the direct
    rule chi(n) * n^{it}; n^{it} alone (chi mod 1) takes one exponential of
    t*k*ln p or t*ln n, so no rounding accumulates.
    """
    if not (math.isfinite(t) and abs(t) * 710 <= sys.float_info.max):  # ln n < 710 at every float n
        raise DomainError(f"t must be finite with |t| * 710 <= {sys.float_info.max}, got {t}")
    _check_unit_disk(ov.values)
    power = lambda n: cmath.exp(1j * t * math.log(n))  # n^{it}
    if t == 0.0:
        rule, direct = (lambda p, k: ov.get(p, chi(p)) ** k), chi
    elif chi.q == 1 and not len(ov.keys):
        rule, direct = (lambda p, k: cmath.exp(1j * t * k * math.log(p))), power
    else:
        rule = lambda p, k: (ov.get(p, chi(p)) * power(p)) ** k
        direct = lambda n: chi(n) * power(n)
    hint = EvalHint("periodic", chi, t, ov)
    return MultiplicativeFunction(description, rule, None if len(ov.keys) else direct, hint)


def one() -> MultiplicativeFunction:
    """The constant completely multiplicative function 1 (CLI name: principal)."""
    return _periodic("principal", TRIVIAL_CHARACTER, 0.0)


def archimedean(t: float) -> MultiplicativeFunction:
    """n^{it}, by one complex exponential of t*ln n: no rounding accumulates
    across prime factors, which makes the concentration identities exact."""
    return _periodic(f"arch:{t}", TRIVIAL_CHARACTER, t)


def character_function(chi: DirichletCharacter) -> MultiplicativeFunction:
    return _periodic(chi.label, chi, 0.0)


def twisted(chi: DirichletCharacter, t: float) -> MultiplicativeFunction:
    """chi * n^{it}; value 0 at primes dividing the modulus (chi = 0 there)."""
    return _periodic(f"twisted:{chi.q}:{chi.label.rsplit(':', 1)[-1]}:{t}", chi, t)


def character_extended(
    chi: DirichletCharacter, overrides: Mapping[int, complex], t: float = 0.0
) -> MultiplicativeFunction:
    """chi * n^{it} with the values at finitely many primes replaced,
    completely multiplicatively: f(p^k) = (override * p^{it})**k."""
    return _periodic(f"{chi.label}+overrides", chi, t, PrimeTable.of(overrides))


# prime_patch's keys, the primes lo < p <= hi, by (lo, hi): the patches of one
# range alive at once, such as the functions a sweep resolves from one spec,
# share one array, which goes with the last of them.
_patch_keys: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def prime_patch(lo: int, hi: int, value: complex) -> MultiplicativeFunction:
    """value at primes in (lo, hi], 1 elsewhere; completely multiplicative.
    The keys are the primes in (lo, hi]; the values, one broadcast value."""
    value = complex(value)
    _check_unit_disk([value])  # before the keys, which may be over the sieve cap
    _check_sieve_limit(hi)  # outside the shared keys: the caps in force apply
    keys = _patch_keys.get((lo, hi))
    if keys is None:
        keys = _patch_keys[lo, hi] = _primes(hi, lo)
    overrides = PrimeTable(keys, np.broadcast_to(np.complex128(value), len(keys)))
    return _periodic(f"prime-patch:{lo}:{hi}:{value}", TRIVIAL_CHARACTER, 0.0, overrides)


_FUNCTION_SYNTAX = {s.split(":")[0]: s for s in (
    "liouville", "principal", "char:q:i", "arch:t", "twisted:q:i:t", "prime-patch:lo:hi:value"
)}


def function_from_name(name: str) -> MultiplicativeFunction:
    """Resolve the CLI syntax: liouville | principal | char:q:i | arch:t |
    twisted:q:i:t | prime-patch:lo:hi:value, with no field more or less."""
    kind, *fields = name.split(":")
    if kind not in _FUNCTION_SYNTAX:
        raise DomainError(f"unknown function {name!r}")
    if len(fields) != _FUNCTION_SYNTAX[kind].count(":"):
        raise DomainError(f"bad function spec {name!r}: expected {_FUNCTION_SYNTAX[kind]}")
    try:
        if kind == "liouville":
            return liouville()
        if kind == "principal":
            return one()
        if kind == "arch":
            return archimedean(float(fields[0]))
        if kind == "char":
            return character_function(dirichlet_character(int(fields[0]), int(fields[1])))
        if kind == "twisted":
            return twisted(dirichlet_character(int(fields[0]), int(fields[1])), float(fields[2]))
        return prime_patch(int(fields[0]), int(fields[1]), complex(fields[2]))
    except ValueError as exc:
        raise DomainError(f"bad function spec {name!r}: {exc}") from exc


# --------------------------------------------------------------------------
# additive functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AdditiveFunction:
    """h(mn) = h(m) + h(n) for coprime m, n, extended evenly to Z: h(p) is
    p's value in table, 0 at every other prime, and h(p^k) = 0 for k >= 2."""

    description: str
    table: PrimeTable

    def at_prime(self, p: int) -> complex:
        return self.table.get(p, 0j)

    def __call__(self, n: int) -> complex:
        if n == 0:
            raise DomainError("additive functions are not defined at 0")
        return sum((self.at_prime(p) for p, e in factorize(n).factors if e == 1), 0j)


def additive_from_prime_values(values: Mapping[int, complex], description: str = "custom") -> AdditiveFunction:
    """h with the given values at primes; every key must be a prime."""
    return AdditiveFunction(description, PrimeTable.of(values))


# --------------------------------------------------------------------------
# prime-sum distances
# --------------------------------------------------------------------------


def prime_window_sum(term: Callable[[np.ndarray], np.ndarray], x: float, y: float) -> complex:
    """Exactly rounded sum of the terms of the primes x < p <= y, where term
    maps an int64 array of primes to their float64 or complex128 terms,
    holding one sieve segment and one chunk of terms at a time."""
    return fsum_complex(map(term, _prime_window(x, y)))


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


def prime_values(f: MultiplicativeFunction, primes: np.ndarray) -> np.ndarray:
    """f at each prime of an int64 array, as complex128, read from f's hint:
    f.at_prime(p) up to the sign of a zero part, which no sum of the
    prime-window terms can see.  Without a hint, f.at_prime is called at each
    prime."""
    hint = f.hint
    if hint is None:
        return np.fromiter(map(f.at_prime, primes.tolist()), np.complex128, len(primes))
    if hint.kind == "liouville":
        return np.full(len(primes), -1.0, dtype=np.complex128)
    out = hint.overrides.put(hint.chi.table[primes % hint.chi.q], primes)
    return _cmul(out, _prime_power_it(primes, hint.t)) if hint.t != 0.0 else out


def _unit_weights(primes: np.ndarray) -> np.ndarray:
    return np.ones(len(primes))


def _root_count_weights(form) -> Callable[[np.ndarray], np.ndarray]:
    """primes -> the local root counts of the form, as float64."""
    from .quadforms import local_root_counts

    return lambda primes: local_root_counts(form, primes).astype(np.float64)


def _pretentious_term(weights: Callable[[np.ndarray], np.ndarray], f, g, real: bool = False) -> Callable:
    """primes -> c(p)/p * (f(p) conj g(p) - 1) for c = weights(primes), 0
    where c(p) = 0: the term of every distance and concentration exponent.
    Its real part is exactly minus c(p)/p * (1 - Re f(p) conj g(p)).

    real=True gives the real part alone, for distances, as float64
    c(p)/p * ((Re f Re g + Im f Im g) - 1): _cmul's real part bit for bit,
    as subtracting Im f * (-Im g) adds Im f * Im g."""

    def term(primes: np.ndarray) -> np.ndarray:
        fv, gv = prime_values(f, primes), prime_values(g, primes)
        if real:
            re = fv.real * gv.real
            re += fv.imag * gv.imag
            re -= 1.0
            del fv, gv  # freed before the weights, to bound the chunk's arrays
            c = weights(primes)
            out = np.zeros(len(primes))
            np.multiply(c / primes, re, out=out, where=c != 0)
            return out
        c = weights(primes)
        s = c / primes
        z = _cmul(fv, np.conj(gv, out=gv))
        out = np.zeros(len(primes), dtype=np.complex128)
        np.multiply(s, z.real - 1.0, out=out.real, where=c != 0)
        np.multiply(s, z.imag, out=out.imag, where=c != 0)
        return out

    return term


def _distance(weights, f, g, primes: Iterable[np.ndarray]) -> float:
    term = _pretentious_term(weights, f, g, real=True)
    return math.sqrt(max(0.0, -fsum_complex(map(term, primes)).real))


def distance(f: MultiplicativeFunction, g: MultiplicativeFunction, x: float, y: float) -> float:
    """Prime-sum distance: sqrt of sum over x < p <= y of (1 - Re f(p) conj g(p)) / p."""
    return _distance(_unit_weights, f, g, _prime_window(x, y))


def distance_form(form, f: MultiplicativeFunction, g: MultiplicativeFunction, x: float, y: float) -> float:
    """Distance with each prime weighted by the local root count of the form."""
    return _distance(_root_count_weights(form), f, g, _prime_window(x, y))


def distance_weighted(c: Callable[[int], float] | Mapping[int, float], f: MultiplicativeFunction,
                      g: MultiplicativeFunction, x: float, y: float) -> float:
    """Distance with finite nonnegative prime weights c(p), or DomainError;
    the keys of a Mapping must be primes."""
    if isinstance(c, Mapping):
        table = PrimeTable.of(c, float)
        _check_weights(table.values)
        keys, values = table.window(x, y)
        return _distance(lambda primes: values, f, g, [keys])
    weights = lambda primes: _check_weights(
        np.fromiter((float(c(p)) for p in primes.tolist()), np.float64, len(primes)))
    return _distance(weights, f, g, _prime_window(x, y))


def distance_profile(f: MultiplicativeFunction, g: MultiplicativeFunction, checkpoints: Sequence[float],
                     form=None) -> list[tuple[float, float]]:
    """Partial-sum growth of the (optionally form-weighted) distance.

    Pretentiousness is a statement about the limit and is undecidable from
    finite data; this report of the distance at increasing cutoffs is the
    honest finite substitute.  Bounded profiles suggest pretentious behavior,
    steadily growing ones suggest the opposite; no boolean is offered.

    One streamed pass to the largest cutoff computes each term once and
    keeps the exact state (arith._exact_parts) of each chunk of terms; a
    cutoff sums the states below it and that of its prefix of its chunk, so
    every entry, in the given order, equals distance (or distance_form) at
    its cutoff.
    """
    ys = [float(y) for y in checkpoints]
    if not ys:
        return []
    _check_cutoffs(*ys)
    if min(ys) < 1:
        raise DomainError("need x <= y")
    weights = _unit_weights if form is None else _root_count_weights(form)
    term = _pretentious_term(weights, f, g, real=True)
    ends = sorted({math.floor(y) for y in ys})
    states: list[list[float]] = []  # one per chunk
    sums: dict[int, float] = {}
    for primes in _prime_window(1, max(ys)):
        terms = term(primes)
        while ends and ends[0] < primes[-1]:  # a cutoff inside the chunk
            prefix = _exact_parts(terms[: primes.searchsorted(ends[0], "right")])
            sums[ends.pop(0)] = math.fsum(chain(*states, prefix))
        states.append(_exact_parts(terms))
    total = math.fsum(chain(*states))
    return [(y, math.sqrt(max(0.0, -sums.get(math.floor(y), total)))) for y in ys]


def _table_sum(table: PrimeTable, term: Callable, x: float, y: float, dtype) -> complex:
    """The exactly rounded sum of term(p, value) over the keys x < p <= y of table."""
    keys, values = table.window(x, y)
    return fsum_complex([np.array([term(p, v) for p, v in zip(keys.tolist(), values.tolist())], dtype)])


def distance_additive(h: AdditiveFunction, x: float, y: float) -> float:
    """sqrt of sum over x < p <= y of |h(p)|^2 / p (the additive-function norm)."""
    return math.sqrt(_table_sum(h.table, lambda p, v: abs(v) ** 2 / p, x, y, np.float64).real)


def predicted_additive_mean(h: AdditiveFunction, k: int, n: int) -> complex:
    """2 * sum over k < p <= n of h(p)/p."""
    return _table_sum(h.table, lambda p, v: 2.0 / p * v, k, n, np.complex128) if k < n else 0j
