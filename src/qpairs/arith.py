"""Exact integer arithmetic substrate.

Sieves, deterministic factorization, residue symbols, CRT, prime search in
arithmetic progressions, and Pell solving via continued fractions.  All
functions are pure; the sieve table is built once and grows monotonically
under a lock, so concurrent use is safe.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from itertools import chain
from math import gcd, isqrt
from typing import Iterable, Iterator

from .caps import caps
from .errors import DomainError, InvariantError, ResourceError

# Deterministic Miller-Rabin witness set, valid for n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 10**6

# Odd integers per segment of the prime sieve: 1 MB of bools, which stays in
# the L2 cache while every sieving prime crosses it off.
_SIEVE_SEGMENT = 1 << 20

# One growing prime table shared by all callers: (limit, the primes <= limit
# as one read-only int64 array), replaced as a whole so that a lock-free read
# sees a matching pair.
_sieve_cache: tuple = (0, None)
_sieve_lock = threading.Lock()

_WALK_CHUNK = 1 << 12  # primes per chunk of a residue-class walk
_TERM_CHUNK = 1 << 16  # terms per list fsum_complex hands math.fsum, primes per prime-sum chunk


@dataclass(frozen=True)
class Factorization:
    """|value| as a product of prime powers, primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def reconstruct(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out if self.value > 0 else -out

    def prime_set(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """n = d * r**2 with d squarefree; the sign rides on d."""

    d: int
    r: int


def _odd_sieve(limit: int):
    """The primes <= limit (limit >= 2) as a read-only int64 array.

    One bool per odd integer while sieving (1/2 B per integer), then 8 B per
    prime: about 96 MB at once for limit 10**8.  The odd primes up to
    sqrt(limit) are sieved first, in the table's own head; then each segment
    of the table is crossed off by all of them while it sits in cache.
    """
    import numpy as np  # on use: importing arith alone loads no numpy

    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2*i + 1
    root = isqrt(limit)
    head = odd[: (root + 1) // 2]
    for i in range(1, (isqrt(root) + 1) // 2):
        if head[i]:
            head[(2 * i + 1) ** 2 // 2 :: 2 * i + 1] = False
    base = (2 * np.flatnonzero(head[1:]) + 3).tolist()
    starts = [p * p // 2 for p in base]  # the next index each prime crosses off
    for lo in range(0, len(odd), _SIEVE_SEGMENT):
        segment = odd[lo : lo + _SIEVE_SEGMENT]
        hi = lo + len(segment)
        for j, p in enumerate(base):
            if starts[j] < hi:
                segment[starts[j] - lo :: p] = False
                starts[j] += (hi - starts[j] + p - 1) // p * p
    # odd[0] stands for 1 and stays set: it becomes the prime 2
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    primes.flags.writeable = False
    return primes


def _prime_array(limit: int):
    """The primes <= limit, ascending, as a read-only int64 view of the
    shared cache: no copy is made.

    Repeated calls with increasing limits cost one sieve of the largest
    limit seen.  Reads of a large enough cache take no lock; growth is
    serialized.
    """
    global _sieve_cache
    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    if limit > caps().sieve_limit:
        raise ResourceError(f"sieve limit {limit} exceeds cap {caps().sieve_limit}")
    cache_limit, primes = _sieve_cache
    if limit > cache_limit:
        with _sieve_lock:
            cache_limit, primes = _sieve_cache
            if limit > cache_limit:
                _sieve_cache = cache_limit, primes = limit, _odd_sieve(limit)
    if limit == cache_limit:
        return primes
    return primes[: primes.searchsorted(limit, "right")]


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending, as a new list (from the shared cache)."""
    return _prime_array(limit).tolist()


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _all_prime(values: Iterable[int]) -> bool:
    """True iff every value is a prime.  Values up to the limit of the cached
    prime table are looked up in it, which is not grown; is_prime tests only
    the values past it."""
    import numpy as np  # on use: importing arith alone loads no numpy

    limit = max(2, min(_sieve_cache[0], caps().sieve_limit))
    table, values = _prime_array(limit), sorted(values)
    lo, hi = bisect.bisect_left(values, 2), bisect.bisect_right(values, limit)
    small = np.fromiter(values[lo:hi], np.int64, hi - lo)
    found = table[np.minimum(table.searchsorted(small), len(table) - 1)] == small
    return lo == 0 and bool(found.all()) and all(map(is_prime, values[hi:]))


def _pollard_brent(n: int) -> int:
    """Deterministic Brent-cycle rho: returns a nontrivial factor of composite n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        steps = 0
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
            steps += 1
            if steps > 10**7:
                break
        if 1 < d < n:
            return d
    raise ResourceError(f"factorization of {n} exceeded the rho iteration cap")


def _trial_divide(m: int, factors: dict[int, int]) -> int:
    """Divide the primes up to min(10**6, isqrt(m)) out of m into factors and
    return what is left.

    The cached primes are walked in steps of growing length, and the walk
    ends at the first prime p with p*p > m.  The first step, the 32 smallest
    primes, goes one by one; a later step tests all its primes at once, in
    numpy while m < 2**63, and ends the walk after it if m has become small
    enough.
    """
    primes = _prime_array(min(_TRIAL_LIMIT, max(2, isqrt(m))))
    for p in primes[:32].tolist():
        if p * p > m:
            return m
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    start, step = 32, 128
    while start < len(primes) and int(primes[start]) ** 2 <= m:
        chunk = primes[start : start + step]
        if m < 2**63:
            hits = chunk[m % chunk == 0].tolist()
        else:
            hits = [p for p in chunk.tolist() if m % p == 0]
        for p in hits:
            while m % p == 0:
                factors[p] = factors.get(p, 0) + 1
                m //= p
        start += step
        step *= 4
    return m


def factorize(n: int) -> Factorization:
    """Factor a nonzero integer: trial division to 10**6, then Brent rho.

    Deterministic; every reported prime passes the Miller-Rabin check.
    """
    if n == 0:
        raise DomainError("cannot factorize 0")
    m = abs(n)
    factors: dict[int, int] = {}
    if m > 1:
        m = _trial_divide(m, factors)
        stack = [m] if m > 1 else []
        while stack:
            v = stack.pop()
            if v == 1:
                continue
            if is_prime(v):
                factors[v] = factors.get(v, 0) + 1
                continue
            d = _pollard_brent(v)
            stack.append(d)
            stack.append(v // d)
    items = tuple(sorted(factors.items()))
    fac = Factorization(value=n, factors=items)
    if fac.reconstruct() != n:
        raise InvariantError("factorization does not reconstruct its input")
    return fac


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n >= 1; Legendre symbol when n is prime."""
    if n <= 0 or n % 2 == 0:
        raise DomainError("Jacobi symbol needs odd positive n")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol; only the cases n prime (including 2) are needed here."""
    if n == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    if n < 0:
        raise DomainError("negative lower argument not supported")
    return jacobi(a, n)


def squarefree_part(n: int) -> SquarefreeDecomposition:
    """Write n = d * r**2 with d squarefree (sign carried by d)."""
    if n == 0:
        raise DomainError("0 has no squarefree decomposition")
    d, r = 1, 1
    for p, e in factorize(n).factors:
        if e % 2:
            d *= p
        r *= p ** (e // 2)
    if n < 0:
        d = -d
    return SquarefreeDecomposition(d=d, r=r)


def crt(congruences: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine x = r_i (mod m_i) into a single congruence.

    Pairwise-coprime moduli always work; overlapping moduli are merged when
    the residues agree on the overlap, otherwise DomainError.
    """
    if not congruences:
        raise DomainError("empty congruence list")
    r, m = 0, 1
    for r2, m2 in congruences:
        if m2 <= 0:
            raise DomainError("moduli must be positive")
        g = gcd(m, m2)
        if (r2 - r) % g != 0:
            raise DomainError(f"inconsistent congruences mod {m} and {m2}")
        lcm = m // g * m2
        # x = r + m*t with m*t = r2 - r (mod m2)
        t = ((r2 - r) // g * pow(m // g, -1, m2 // g)) % (m2 // g)
        r = (r + m * t) % lcm
        m = lcm
    return r, m


def check_prime_limit(limit: int) -> None:
    """Refuse a prime search limit <= 0; a limit of 1 holds no primes."""
    if limit <= 0:
        raise DomainError(f"prime limit must be positive, got {limit}")


def primes_in_class(a: int, q: int, limit: int) -> Iterator[int]:
    """The primes p <= limit with p = a (mod q), ascending, read from the
    shared prime array in chunks: a search that stops early converts no more.
    A limit of 1 holds no primes; a limit <= 0 is an error."""
    check_prime_limit(limit)
    if q <= 0:
        raise DomainError(f"modulus {q} of the residue class must be positive")
    if gcd(a, q) != 1:
        raise DomainError(f"gcd({a}, {q}) != 1: the class contains at most one prime")
    a %= q
    primes = _prime_array(limit) if limit >= 2 else ()
    for i in range(0, len(primes), _WALK_CHUNK):
        chunk = primes[i : i + _WALK_CHUNK]
        # for q > limit, p % q == p, and q need not fit in int64
        yield from chunk[(chunk % q if q <= limit else chunk) == a].tolist()


def find_prime_in_class(a: int, q: int, limit: int) -> int | None:
    """Smallest prime p <= limit with p = a (mod q), or None if none exists.

    None is a value, not an error: existence is only guaranteed
    asymptotically, so an exhausted limit is an ordinary outcome.
    """
    return next(primes_in_class(a, q, limit), None)


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def _cf_unit(d: int, p0: int = 0, q0: int = 1) -> tuple[int, int, int]:
    """Minimal (x, y, s) with x, y >= 1 and (x - y*xi)(x - y*xi') = s in
    {1, -1}, for xi = (p0 + sqrt(d))/q0 and its conjugate xi'.

    Continued-fraction expansion of xi: at the k-th convergent x/y that
    product is (-1)**(k+1) * Q/q0, with (P + sqrt(d))/Q the next complete
    quotient, so the first return of Q to q0 gives the unit.  Needs q0 > 0
    dividing d - p0**2, xi > 1 and xi' < 0, as for sqrt(d) and for
    (1 + sqrt(d))/2 with d = 1 mod 4; every later quotient is then reduced,
    so Q stays positive.
    """
    r = isqrt(d)
    if r * r == d:
        raise DomainError(f"{d} is a perfect square")
    big_p, big_q, s = p0, q0, 1
    p_prev, p, q_prev, q = 0, 1, 1, 0
    while True:
        a = (big_p + r) // big_q
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        big_p = a * big_q - big_p
        big_q = (d - big_p * big_p) // big_q
        s = -s
        if big_q == q0:
            return p, q, s


def pell_fundamental(d: int) -> tuple[int, int]:
    """Minimal positive solution of x**2 - d*y**2 = 1 (d >= 2, nonsquare)."""
    if d < 2:
        raise DomainError("need d >= 2")
    x, y, s = _cf_unit(d)
    if s == -1:
        # square the norm -1 unit: (x + y sqrt(d))**2
        x, y = x * x + d * y * y, 2 * x * y
    if x * x - d * y * y != 1:
        raise InvariantError("continued-fraction Pell solution failed verification")
    return x, y


def is_square(n: int) -> bool:
    """True iff n is a perfect square (0 counts)."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def fsum_complex(terms: Iterable) -> complex:
    """Exactly rounded complex sum of a stream of numbers and 1-D float64 or
    complex128 arrays, the same in any order and split.  Real parts go to
    math.fsum as they come, 2**16 array terms at a time; imaginary parts wait
    aside, 8 B per complex array term.  A zero sum is +0.0."""
    imag: list = []  # floats, and arrays of 2**16 terms or fewer

    def reals() -> Iterator:
        for t in terms:
            if not getattr(t, "ndim", 0):  # a number (no numpy import here)
                imag.append(t.imag)
                yield (t.real,)
                continue
            for i in range(0, len(t), _TERM_CHUNK):
                chunk = t[i : i + _TERM_CHUNK]
                if chunk.dtype.kind == "c":
                    imag.append(chunk.imag.copy())
                yield chunk.real.tolist()

    real = math.fsum(chain.from_iterable(reals()))
    parts = (part.tolist() if getattr(part, "ndim", 0) else (part,) for part in imag)
    return complex(real, math.fsum(chain.from_iterable(parts)))
