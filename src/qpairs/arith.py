"""Exact integer arithmetic substrate.

Sieves, deterministic factorization, residue symbols, CRT, prime search in
arithmetic progressions, and Pell solving via continued fractions.  All
functions are pure; the sieve table is built once and grows monotonically
under a lock, so concurrent use is safe.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from math import gcd, isqrt

from .caps import CAPS
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
    if limit > CAPS.sieve_limit:
        raise ResourceError(f"sieve limit {limit} exceeds cap {CAPS.sieve_limit}")
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


def find_prime_in_class(a: int, q: int, limit: int) -> int | None:
    """Smallest prime p <= limit with p = a (mod q), or None if none exists.

    None is a value, not an error: existence is only guaranteed
    asymptotically, so an exhausted limit is an ordinary outcome.
    """
    if q <= 0 or limit <= 0:
        raise DomainError("q and limit must be positive")
    if gcd(a, q) != 1:
        raise DomainError(f"gcd({a}, {q}) != 1: the class contains at most one prime")
    a %= q
    for p in sieve_primes(max(2, limit)):
        if p > limit:
            break
        if p % q == a:
            return p
    return None


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


def _sqrt_cf_unit(d: int) -> tuple[int, int, int]:
    """Minimal (x, y, s) with x**2 - d*y**2 = s in {1, -1}, x, y >= 1.

    Continued-fraction expansion of sqrt(d): the convergent just before the
    first period ends has norm (-1)**period.
    """
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise DomainError(f"{d} is a perfect square")
    m, den, a = 0, 1, a0
    p_prev, q_prev = 1, 0
    p, q = a0, 1
    period = 0
    while True:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        period += 1
        if a == 2 * a0:
            break
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return p, q, (1 if period % 2 == 0 else -1)


def pell_fundamental_pm(d: int) -> tuple[int, int, int]:
    """Minimal positive (x, y) with x**2 - d*y**2 = +-1, plus the sign attained."""
    return _sqrt_cf_unit(d)


def pell_fundamental(d: int) -> tuple[int, int]:
    """Minimal positive solution of x**2 - d*y**2 = 1 (d >= 2, nonsquare)."""
    if d < 2:
        raise DomainError("need d >= 2")
    x, y, s = _sqrt_cf_unit(d)
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


def fsum_complex(terms) -> complex:
    """Exactly rounded complex sum (order-independent)."""
    res = list(terms)
    return complex(math.fsum(t.real for t in res), math.fsum(t.imag for t in res))
