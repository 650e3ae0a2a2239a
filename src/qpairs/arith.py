"""Exact integer arithmetic substrate.

Sieves, deterministic factorization, residue symbols, CRT, prime search in
arithmetic progressions, Pell solving via continued fractions, and the exact
accumulator behind every floating-point sum (`fsum_complex`).  All functions
are pure.  Every prime list is read from one segmented sieve, which streams
the primes one segment at a time; no prime table grows, and no result or
cost depends on what earlier calls built.  Trial division reads one fixed
table, the primes below 2**16, built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt
from typing import Iterable, Iterator

import numpy as np

from .caps import caps
from .errors import DomainError, InvariantError, ResourceError

# Deterministic Miller-Rabin witness set, valid for n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 1 << 16  # trial division reads the primes below it; Brent rho splits the rest

# Odd integers per segment of the prime sieve: 1 MB of bools, which stays in
# the L2 cache while every sieving prime crosses it off.
_SIEVE_SEGMENT = 1 << 20

_WALK_CHUNK = 1 << 12  # primes per chunk of a residue-class walk
_TERM_CHUNK = 1 << 15  # terms per extraction in fsum_complex, primes per prime-sum chunk
_EXTRACT_MAX = 2.0**1001  # the least magnitude at which 2**(e + 22) overflows


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


def _odd_sieve(limit: int, after: int = 0) -> Iterator:
    """The primes after < p <= limit, ascending, as read-only int64 chunks:
    one chunk per segment of _SIEVE_SEGMENT odd integers that holds such a
    prime, segments aligned to multiples of 2 * _SIEVE_SEGMENT.

    The odd primes up to sqrt(limit) are sieved first, alone; then each
    segment from the one holding after + 1 is crossed off by all of them in
    one reused bool buffer (1 MB), which stays in cache, and its primes are
    read out.  So a walk holds one segment and its chunk, never 1/2 B per
    integer of the whole range.
    """
    if limit < 2:
        return
    root = isqrt(limit)
    head = np.ones((root + 1) // 2, dtype=bool)  # head[i] stands for 2*i + 1
    for i in range(1, (isqrt(root) + 1) // 2):
        if head[i]:
            head[(2 * i + 1) ** 2 // 2 :: 2 * i + 1] = False
    base = (2 * np.flatnonzero(head[1:]) + 3).tolist()
    end = (limit + 1) // 2  # odd indices below end stand for the odd n <= limit
    # the segment of the first odd n > after; index 0 also holds the prime 2
    first = (after + 1) // 2 // _SIEVE_SEGMENT * _SIEVE_SEGMENT if after >= 2 else 0
    # the next index each prime crosses off: its square, or the first odd
    # multiple at or past the first segment (2*i + 1 = 0 mod p at i = p // 2)
    starts = [max(p * p // 2, first + (p // 2 - first) % p) for p in base]
    buf = np.empty(min(_SIEVE_SEGMENT, max(end - first, 0)), dtype=bool)
    for lo in range(first, end, _SIEVE_SEGMENT):
        hi = min(end, lo + _SIEVE_SEGMENT)
        segment = buf[: hi - lo]
        segment[:] = True
        for j, p in enumerate(base):
            if starts[j] < hi:
                segment[starts[j] - lo :: p] = False
                starts[j] += (hi - starts[j] + p - 1) // p * p
        skip = max(0, (after + 1) // 2 - lo) if after >= 2 else 0  # the indices of odd n <= after
        chunk = np.flatnonzero(segment[skip:])
        chunk *= 2
        chunk += 2 * (lo + skip) + 1
        if lo + skip == 0:
            chunk[0] = 2  # index 0 stands for 1 and stays set: it becomes the prime 2
        if len(chunk):
            chunk.flags.writeable = False
            yield chunk


def _check_sieve_limit(limit: int) -> None:
    """Refuse a sieve to limit past sieve_limit, before anything is allocated."""
    if limit > caps().sieve_limit:
        raise ResourceError(f"sieve limit {limit} exceeds cap {caps().sieve_limit}")


def _primes(limit: int, after: int = 0):
    """The primes after < p <= limit as one new read-only int64 array, the
    concatenation of _odd_sieve's chunks: a build holds the chunks and the
    array, 8 B per prime each (92 MB at 10**8), and no sieve array.  The
    limit is not checked against sieve_limit here."""
    primes = np.concatenate([np.zeros(0, np.int64), *_odd_sieve(limit, after)])
    primes.flags.writeable = False
    return primes


def _prime_array(limit: int):
    """The primes <= limit, ascending, as a new read-only int64 array."""
    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    _check_sieve_limit(limit)
    return _primes(limit)


@cache
def _trial_primes():
    """The 6,542 primes below _TRIAL_LIMIT, built on first use: a fixed
    table, not a sieve sized by a caller, so sieve_limit does not apply."""
    return _primes(_TRIAL_LIMIT)


def _check_cutoffs(*cutoffs: float) -> None:
    if not all(-math.inf < c < math.inf for c in cutoffs):
        raise DomainError("prime-window cutoffs must be finite")


def _check_window(x: float, y: float) -> None:
    """Refuse a prime window (x, y] unless x and y are finite, x <= y and y
    <= sieve_limit: the checks of every prime-window sum."""
    _check_cutoffs(x, y)
    if x > y:
        raise DomainError("need x <= y")
    if y > caps().sieve_limit:
        raise ResourceError("upper range exceeds the sieve cap")


def _prime_window(x: float, y: float) -> Iterator:
    """The primes x < p <= y in ascending read-only int64 chunks of at most
    _TERM_CHUNK, streamed by _odd_sieve: no array of the window is built.
    The window is checked at the call."""
    _check_window(x, y)
    hi = math.floor(y)
    segments = _odd_sieve(hi, max(1, math.floor(x)))
    return (seg[i : i + _TERM_CHUNK] for seg in segments for i in range(0, len(seg), _TERM_CHUNK))


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending, as a new list."""
    return _prime_array(limit).tolist()


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
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


def _strip_prime(values, p: int):
    """Divide every factor p out of values, in place: a 1-D int64 or object
    array of nonzero integers (a zero would never leave the loop).  Returns the
    ascending indices of the values p divides and p's int64 exponent in each.
    Only the first pass reads every value; later ones, the values just divided."""
    hits = np.flatnonzero(values % p == 0)
    exps = np.zeros(len(hits), dtype=np.int64)
    at = np.arange(len(hits))  # the positions in hits of the values p still divides
    while len(at):
        values[hits[at]] //= p
        exps[at] += 1
        at = at[values[hits[at]] % p == 0]
    return hits, exps


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
    """Divide the primes below min(_TRIAL_LIMIT, isqrt(m) + 1) out of m into
    factors and return what is left.

    The trial primes are walked in steps of growing length, and the walk
    ends at the first prime p with p*p > m.  The first step, the 32 smallest
    primes, goes one by one; a later step tests all its primes at once, in
    numpy while m < 2**63, and ends the walk after it if m has become small
    enough.
    """
    primes = _trial_primes()
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
    """Factor a nonzero integer: trial division by the primes below 2**16,
    then Brent rho on what is left.

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
    segmented sieve in chunks of at most _WALK_CHUNK primes: a search that
    stops early sieves and converts no more.  A limit of 1 holds no primes;
    a limit <= 0 is an error, and so is one past sieve_limit, before the
    first segment."""
    check_prime_limit(limit)
    if q <= 0:
        raise DomainError(f"modulus {q} of the residue class must be positive")
    if gcd(a, q) != 1:
        raise DomainError(f"gcd({a}, {q}) != 1: the class contains at most one prime")
    _check_sieve_limit(limit)
    a %= q
    for segment in _odd_sieve(limit):
        for i in range(0, len(segment), _WALK_CHUNK):
            chunk = segment[i : i + _WALK_CHUNK]
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


def _exact_parts(x) -> list[float]:
    """A few floats whose exact sum is the exact sum of the finite float64
    array x, of at most 2**21 terms: the state of the exact accumulator.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008): with every
    |x_i| <= 2**e, q = (sigma + x) - sigma at sigma = 2**(e + 22) splits x
    exactly into x - q and multiples q of 2**(e - 31), of which 2**21 sum
    exactly in any order; a second level at sigma = 2**(e - 9) takes the
    next 31 bits.  What is left is compacted and extracted again from its
    own largest magnitude, so terms within 2**8 of the largest take one
    round.  Terms of 2**1001 or more, where sigma would overflow, are kept
    as they are.
    """
    parts: list[float] = []
    while len(x):
        top = max(x.max(), -x.min())
        if top >= _EXTRACT_MAX:
            huge = abs(x) >= _EXTRACT_MAX
            parts += x[huge].tolist()
            x = x[~huge]
            continue
        if top == 0.0:  # zeros only
            break
        e = math.frexp(top)[1]  # top < 2**e
        for k in (e + 22, e - 9):
            sigma = math.ldexp(1.0, k)  # 0.0 below 2**-1074, where q = x
            q = x + sigma
            q -= sigma
            x = x - q
            parts.append(float(q.sum()))
        x = x[x != 0.0]
    return parts


def fsum_complex(terms: Iterable) -> complex:
    """Exactly rounded complex sum of a stream of finite numbers and 1-D
    float64 or complex128 arrays, the same in any order and split (as long
    as no partial sum overflows).  A zero sum is +0.0.

    Real and imaginary parts each keep one state of the exact accumulator
    (_exact_parts): a short list of floats with the exact sum so far.  An
    array adds the state of each chunk of _TERM_CHUNK terms, a number adds
    itself, and a state past _TERM_CHUNK floats is replaced by its own
    state; the result is math.fsum of each list.  Merging states is
    concatenation, so no array term becomes a Python float and memory stays
    bounded however long the stream.
    """
    re: list = []
    im: list = []
    for t in terms:
        if not getattr(t, "ndim", 0):  # a number
            re.append(t.real)
            im.append(t.imag)
        else:
            for i in range(0, len(t), _TERM_CHUNK):
                chunk = t[i : i + _TERM_CHUNK]
                re += _exact_parts(chunk.real)
                if chunk.dtype.kind == "c":
                    im += _exact_parts(chunk.imag)
        for parts in (re, im):
            if len(parts) > _TERM_CHUNK:
                parts[:] = _exact_parts(np.array(parts, dtype=np.float64))
    return complex(math.fsum(re), math.fsum(im))
