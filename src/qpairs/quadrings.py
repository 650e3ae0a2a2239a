"""Quadratic rings Z[tau_d] with norm form P_d.

Sign convention: the field is Q(sqrt(-d)) for squarefree d, so d > 0 is the
imaginary case (at most 4 units) and d < 0 the real case (rank-1 unit group).
tau_d is sqrt(-d) for d = 1, 2 mod 4 and (1 + sqrt(-d))/2 for d = 3 mod 4,
which always gives the maximal order; the norm of m + n*tau_d is P_d(m, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

import numpy as np

from .arith import _cf_unit, factorize, kronecker
from .caps import caps
from .errors import DomainError, InvariantError, ResourceError
from .quadforms import BinaryQuadraticForm, needs_bigint


@dataclass(frozen=True)
class QuadraticRing:
    d: int  # squarefree, nonzero

    def __post_init__(self):
        if self.d == 0:
            raise DomainError("d must be nonzero")
        if self.d == -1:
            raise DomainError("d = -1 gives Q(sqrt(1)), which is not a quadratic field")
        for _, e in factorize(self.d).factors:
            if e > 1:
                raise DomainError(f"d = {self.d} is not squarefree")

    @cached_property
    def half_integer(self) -> bool:
        """True when tau = (1 + sqrt(-d))/2 (d = 3 mod 4)."""
        return self.d % 4 == 3

    @cached_property
    def norm_form(self) -> BinaryQuadraticForm:
        if self.half_integer:
            return BinaryQuadraticForm(1, 1, (self.d + 1) // 4)
        return BinaryQuadraticForm(1, 0, self.d)

    @cached_property
    def field_discriminant(self) -> int:
        return -self.d if self.half_integer else -4 * self.d

    @property
    def unit_rank(self) -> int:
        return 0 if self.d > 0 else 1

    def element(self, m: int, n: int) -> "RingElement":
        return RingElement(self, m, n)

    def one(self) -> "RingElement":
        return RingElement(self, 1, 0)

    def __str__(self) -> str:
        return f"Z[tau_{self.d}]"


@dataclass(frozen=True)
class RingElement:
    """m + n * tau_d."""

    ring: QuadraticRing
    m: int
    n: int

    def norm(self) -> int:
        return self.ring.norm_form.value(self.m, self.n)

    def conjugate(self) -> "RingElement":
        if self.ring.half_integer:
            return RingElement(self.ring, self.m + self.n, -self.n)
        return RingElement(self.ring, self.m, -self.n)

    def __mul__(self, other: "RingElement") -> "RingElement":
        if self.ring != other.ring:
            raise DomainError("elements of different rings")
        m1, n1, m2, n2 = self.m, self.n, other.m, other.n
        if self.ring.half_integer:
            e = (self.ring.d + 1) // 4  # tau^2 = tau - e
            return RingElement(self.ring, m1 * m2 - e * n1 * n2, m1 * n2 + n1 * m2 + n1 * n2)
        return RingElement(self.ring, m1 * m2 - self.ring.d * n1 * n2, m1 * n2 + n1 * m2)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, -self.m, -self.n)

    def divide_exact(self, other: "RingElement") -> "RingElement | None":
        """self / other when other divides self in the ring, else None."""
        k = other.norm()
        if k == 0:
            raise DomainError("division by zero element")
        num = self * other.conjugate()
        if num.m % k or num.n % k:
            return None
        return RingElement(self.ring, num.m // k, num.n // k)

    def real_value(self) -> float:
        """The image under the embedding sending sqrt(-d) to the positive root
        (real quadratic case d < 0)."""
        if self.ring.d > 0:
            raise DomainError("real embedding needs d < 0")
        root = (-self.ring.d) ** 0.5
        tau = (1 + root) / 2 if self.ring.half_integer else root
        return self.m + self.n * tau

    def __str__(self) -> str:
        return f"{self.m}+{self.n}*tau"


def parse_element(text: str) -> tuple[int, int]:
    """CLI literal m+n*tau (n may be omitted or a bare sign) or an integer m,
    as the coordinates (m, n)."""
    text = text.replace(" ", "")
    if "tau" not in text:
        return int(text), 0
    head = text.split("tau", 1)[0].rstrip("*")
    if "+" in head[1:]:
        cut = head.rfind("+")
    else:
        cut = max(head.rfind("-"), 0)
    m_text, n_text = (head[:cut], head[cut:]) if cut else ("0", head)
    n_text = {"": "1", "+": "1", "-": "-1"}.get(n_text, n_text)
    return int(m_text) if m_text else 0, int(n_text)


def count_norm_solutions(d: int, k: int, box: int) -> int:
    """Lattice points m, n in [-box, box] with norm(m + n*tau_d) = k.

    Scans n and solves the quadratic in m by integer square root; exact.
    With the norm form [1, beta, gamma] and D = beta^2 - 4*gamma,
    (2m + beta*n)^2 = 4k + D*n^2.
    """
    if k == 0:
        raise DomainError("k must be nonzero")
    if box > caps().box_count_n:
        raise ResourceError(f"box {box} exceeds cap {caps().box_count_n}")
    form = QuadraticRing(d).norm_form
    beta, disc = form.beta, form.discriminant
    count = 0
    for n in range(-box, box + 1):
        s = 4 * k + disc * n * n
        if s < 0:
            continue
        y = isqrt(s)
        if y * y != s:
            continue
        for yy in {y, -y}:
            if (yy - beta * n) % 2 == 0 and abs((yy - beta * n) // 2) <= box:
                count += 1
    return count


def count_ideals(d: int, k: int) -> int:
    """Ideals of Z[tau_d] with norm k, multiplicatively from the splitting type.

    Split prime: a+1 ideals above p^a; inert: 1 if a even, else 0; ramified: 1.
    """
    if k <= 0:
        raise DomainError("ideal norms are positive")
    ring = QuadraticRing(d)
    disc = ring.field_discriminant
    total = 1
    for p, a in factorize(k).factors:
        sym = kronecker(disc, p)
        if sym == 1:
            total *= a + 1
        elif sym == -1:
            if a % 2:
                return 0
        # ramified contributes a factor 1
    return total


def fundamental_unit(d: int) -> tuple[RingElement, int]:
    """Generator u > 1 of the unit group mod torsion (real case d < 0).

    From the continued fraction of tau, sqrt(|d|) for d = 1, 2 mod 4 and
    (1 + sqrt(|d|))/2 for d = 3 mod 4: its first convergent x/y with
    (x - y*tau)(x - y*conj(tau)) = +-1 gives u = x - y*conj(tau).
    Returns (unit, norm).
    """
    if d >= 0:
        raise DomainError("only real rings (d < 0) have infinite unit groups")
    ring = QuadraticRing(d)
    if not ring.half_integer:
        x, y, s = _cf_unit(-d)
        return ring.element(x, y), s
    x, y, s = _cf_unit(-d, 1, 2)
    return ring.element(x - y, y), s  # conj(tau) = 1 - tau


def real_count_log_diagnostic(d: int, k_max: int, box: int) -> float:
    """Fitted constant for the real-case box-count bound (monitored, never
    asserted: the constant is not explicit).

    For d < 0 the lattice count is bounded by log_+(c * box / sqrt|k|) times
    the ideal count; this returns the smallest c making that hold for all
    nonzero |k| <= k_max at this box size.
    """
    if d >= 0:
        raise DomainError("the log-shaped bound concerns real rings (d < 0)")
    import math

    worst = 1.0
    for k in [k for k in range(-k_max, k_max + 1) if k != 0]:
        lattice = count_norm_solutions(d, k, box)
        if lattice == 0:
            continue
        ideals = count_ideals(d, abs(k))
        if ideals == 0:  # pragma: no cover - lattice points generate ideals
            raise InvariantError("lattice solutions without a matching ideal")
        # need log(c * box / sqrt|k|) >= lattice / ideals
        needed = math.exp(lattice / ideals) * math.sqrt(abs(k)) / box
        worst = max(worst, needed)
    return worst


def unit_inverse(u: RingElement) -> RingElement:
    """Inverse of a unit (norm +-1)."""
    nrm = u.norm()
    if abs(nrm) != 1:
        raise DomainError("not a unit")
    c = u.conjugate()
    return c if nrm == 1 else -c


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(a, b) = u*a + v*b and g >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return (a, u0, v0) if a >= 0 else (-a, -u0, -v0)


# Lattice points per stripe of the is_regular walk: 512 KB per int64 array,
# small enough for a stripe's temporaries to stay in cache.
_STRIPE_POINTS = 1 << 16


def is_regular(z: RingElement, c_bound, n_max: int) -> bool:
    """Box-contraction regularity of z with constant C.

    For every N <= n_max, every w with z*w in the symmetric coordinate box
    with half-width N must land in the box with half-width
    floor(C * |norm(z)|^(-1/2) * N).  Checked exhaustively over the multiples
    z*w in the box, about (2N+1)^2 / |norm(z)| points; the comparison is exact
    for rational C.

    The multiples form the image of M = [z*1 | z*tau], a lattice of index
    k = |norm(z)|.  Its Hermite basis is (g, h), (0, t) with g*t = k, so the
    row m = a*g of the box holds the n = a*h (mod t).  Rows are walked in
    stripes, and w = adj(M) (m, n) / det(M) exactly.
    """
    if z.m == 0 and z.n == 0:
        raise DomainError("z must be nonzero")
    if n_max > caps().box_count_n:
        raise ResourceError(f"box {n_max} exceeds cap {caps().box_count_n}")
    try:
        c_frac = Fraction(c_bound)
    except (ValueError, OverflowError) as exc:  # NaN, infinities
        raise DomainError(f"C must be finite, got {c_bound}") from exc
    if c_frac <= 0:
        raise DomainError("C must be positive")
    if n_max < 1:
        return True
    det = z.norm()
    k = abs(det)
    if k == 0:
        raise DomainError("division by zero element")
    z_tau = z * z.ring.element(0, 1)
    p, q, r, s = z.m, z_tau.m, z.n, z_tau.n  # M = [[p, q], [r, s]]
    g, u, v = _ext_gcd(p, q)
    t = k // g
    h = (u * r + v * s) % t
    # Every intermediate (adj(M) (m, n), a*h, the row progressions) stays
    # below this bound; past the 2**62 guard the same walk runs on Python ints.
    bound = 2 * (max(abs(p), abs(q), abs(r), abs(s)) + k) * (n_max + 1)
    dtype = object if needs_bigint(bound) else np.int64
    # limit[b]: largest coord allowed in box b, coord^2 * k * den^2 <= num^2 * b^2;
    # no coord reaches the bound, so clipping there keeps the comparison exact.
    num2, den2 = c_frac.numerator**2, c_frac.denominator**2
    limit = np.array(
        [min(isqrt(num2 * b * b // (k * den2)), bound) for b in range(n_max + 1)], dtype=dtype
    )
    cols = np.arange(2 * n_max // t + 1).astype(dtype) * t  # most points one row holds
    rows = np.arange(-(n_max // g), n_max // g + 1).astype(dtype)
    step = max(1, _STRIPE_POINTS // len(cols))
    for lo in range(0, len(rows), step):
        a = rows[lo : lo + step]
        first = (a * h + n_max) % t - n_max  # smallest n >= -N on each row
        n = first[:, None] + cols[None, :]
        inside = n <= n_max
        m = np.broadcast_to((a * g)[:, None], n.shape)[inside]
        n = n[inside]
        coord = np.maximum(np.abs((s * m - q * n) // det), np.abs((p * n - r * m) // det))
        box = np.maximum(np.abs(m), np.abs(n)).astype(np.int64, copy=False)
        # the origin has box 0 and w = 0, which meets limit[0] = 0
        if (coord > limit[box]).any():
            return False
    return True


def find_regular_associate(
    z: RingElement, c_bound, n_max: int, t_range: int
) -> tuple[RingElement, int, int] | None:
    """First associate z * (+-u^t), |t| <= t_range, passing the regularity check.

    Searched in the order t = 0, 1, -1, 2, -2, ... with + before -; returns
    (associate, t, sign) or None.  Real rings only: for d > 0 the unit group
    is finite and z itself is the only associate worth checking.
    """
    if z.ring.d > 0:
        raise DomainError(
            "imaginary ring: only finitely many units, apply the regularity check to z itself"
        )
    u, _ = fundamental_unit(z.ring.d)
    u_inv = unit_inverse(u)
    order = [0]
    for t in range(1, t_range + 1):
        order.extend((t, -t))
    for t in order:
        w = z
        step = u if t > 0 else u_inv
        for _ in range(abs(t)):
            w = w * step
        for sign in (1, -1):
            cand = w if sign == 1 else -w
            if is_regular(cand, c_bound, n_max):
                return cand, t, sign
    return None
