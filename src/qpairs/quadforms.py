"""Binary quadratic forms and their local data.

Root counts of P(n, 1) modulo r, the partner prime sets of a pair of forms,
Hensel lifting, and the congruence-pair construction that pins prescribed
exact prime divisibilities into P_j(a, b) by CRT.  Forms are used exactly as
given (no reduction theory): only congruence data of the coefficients matters
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Mapping

from .arith import (
    _prime_array,
    crt,
    factorize,
    is_square,
    jacobi,
    sieve_primes,
    sqrt_mod,
    squarefree_part,
)
from .caps import CAPS
from .errors import DomainError, InvariantError, ResourceError


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """alpha*m^2 + beta*m*n + gamma*n^2 with integer coefficients."""

    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        if self.alpha == 0 and self.beta == 0 and self.gamma == 0:
            raise DomainError("the zero form is not allowed")

    @cached_property
    def discriminant(self) -> int:
        return self.beta**2 - 4 * self.alpha * self.gamma

    @cached_property
    def squarefree_disc(self) -> tuple[int, int]:
        """(d, r) with discriminant = d * r^2, d squarefree."""
        sf = squarefree_part(self.discriminant) if self.discriminant != 0 else None
        if sf is None:
            return (0, 1)
        return (sf.d, sf.r)

    @cached_property
    def norm_orientation(self) -> tuple[int, int]:
        """(d, r) with 4*alpha*gamma - beta^2 = d * r^2, d squarefree."""
        v = 4 * self.alpha * self.gamma - self.beta**2
        if v == 0:
            return (0, 1)
        sf = squarefree_part(v)
        return (sf.d, sf.r)

    @cached_property
    def irreducible(self) -> bool:
        """True iff the discriminant is not a perfect square and alpha != 0."""
        return self.alpha != 0 and not is_square(self.discriminant)

    def value(self, m: int, n: int) -> int:
        return self.alpha * m * m + self.beta * m * n + self.gamma * n * n

    def grid_values(self, u, w):
        """Vectorized evaluation on coordinate arrays (numpy or python ints).

        Terms with a zero coefficient are skipped.  The result is still a new
        value of the broadcast shape and dtype of u and w, equal to
        alpha*u*u + beta*u*w + gamma*w*w.
        """
        import numpy as np

        out = None
        for c, x, y in ((self.alpha, u, u), (self.beta, u, w), (self.gamma, w, w)):
            if c:
                term = c * x * y
                out = term if out is None else out + term
        shape = np.broadcast_shapes(np.shape(u), np.shape(w))
        if np.shape(out) != shape or (
            isinstance(out, np.ndarray) and out.dtype != np.result_type(u, w)
        ):
            out = np.broadcast_to(out, shape).astype(np.result_type(u, w))
        return out

    def __str__(self) -> str:
        return f"[{self.alpha},{self.beta},{self.gamma}]"


@dataclass(frozen=True)
class LinearForm:
    """u*m + v*n."""

    u: int
    v: int

    @property
    def nontrivial(self) -> bool:
        return (self.u, self.v) != (0, 0)

    def independent(self, other: "LinearForm") -> bool:
        return self.u * other.v - self.v * other.u != 0

    def value(self, m: int, n: int) -> int:
        return self.u * m + self.v * n

    def grid_values(self, u, w):
        return self.u * u + self.v * w

    def __str__(self) -> str:
        return f"[{self.u},{self.v}]"


def shifted_value_bound(form: BinaryQuadraticForm, q: int, a: int, b: int, n: int) -> int:
    """A bound on |P(q*m + a, q*k + b)| over 1 <= m, k <= n."""
    hi = q * n + max(abs(a), abs(b))
    return (abs(form.alpha) + abs(form.beta) + abs(form.gamma)) * hi * hi


def needs_bigint(form: BinaryQuadraticForm, q: int, a: int, b: int, n: int) -> bool:
    """True when those values may overflow int64 arithmetic (the 2**62 guard)."""
    return shifted_value_bound(form, q, a, b, n) >= 2**62


def parse_form(text: str) -> BinaryQuadraticForm:
    """CLI literal: [alpha,beta,gamma]."""
    try:
        parts = [int(x) for x in text.strip().strip("[]").split(",")]
        alpha, beta, gamma = parts
    except (ValueError, IndexError) as exc:
        raise DomainError(f"bad form literal {text!r}") from exc
    return BinaryQuadraticForm(alpha, beta, gamma)


def parse_linear_form(text: str) -> LinearForm:
    """CLI literal: [u,v]."""
    try:
        u, v = (int(x) for x in text.strip().strip("[]").split(","))
    except ValueError as exc:
        raise DomainError(f"bad linear form literal {text!r}") from exc
    return LinearForm(u, v)


# --------------------------------------------------------------------------
# local root counts
# --------------------------------------------------------------------------


def _roots_mod_prime(form: BinaryQuadraticForm, p: int) -> list[int]:
    """Residues x mod p with P(x, 1) = 0 mod p, without scanning when possible."""
    a, b, c = form.alpha % p, form.beta % p, form.gamma % p
    if p <= 1000:
        return [x for x in range(p) if (form.alpha * x * x + form.beta * x + form.gamma) % p == 0]
    if a == 0:
        if b == 0:
            return list(range(p)) if c == 0 else []
        return [(-c * pow(b, -1, p)) % p]
    disc = (b * b - 4 * a * c) % p
    if disc == 0:
        return [(-b * pow(2 * a, -1, p)) % p]
    s = sqrt_mod(disc, p)
    if s is None:
        return []
    inv2a = pow(2 * a, -1, p)
    return sorted({((-b + s) * inv2a) % p, ((-b - s) * inv2a) % p})


def _roots_mod_prime_power(form: BinaryQuadraticForm, p: int, k: int) -> list[int]:
    """All residues mod p^k where P(x, 1) vanishes, by stepwise lifting.

    Simple roots lift uniquely; singular roots branch into p children when the
    value already vanishes one level up.  Work is capped to keep degenerate
    forms from exploding.
    """
    roots = _roots_mod_prime(form, p)
    pe = p
    for _ in range(k - 1):
        lifted: list[int] = []
        for x in roots:
            fx = form.alpha * x * x + form.beta * x + form.gamma
            dfx = (2 * form.alpha * x + form.beta) % p
            if dfx != 0:
                t = (-(fx // pe) * pow(dfx, -1, p)) % p
                lifted.append(x + t * pe)
            elif fx % (pe * p) == 0:
                lifted.extend(x + t * pe for t in range(p))
            if len(lifted) > CAPS.lift_work:
                raise ResourceError("root lifting exceeded the work cap")
        roots = lifted
        pe *= p
    return sorted(roots)


def local_root_count(form: BinaryQuadraticForm, r: int) -> int:
    """Number of n mod r with P(n, 1) = 0 mod r.

    Exhaustive scan up to the scan cap; beyond it, multiplicative over the
    prime powers of r with counts obtained by root lifting.
    """
    if r <= 0:
        raise DomainError("modulus must be positive")
    if r == 1:
        return 1
    max_coeff = max(abs(form.alpha), abs(form.beta), abs(form.gamma))
    if r <= CAPS.root_scan_limit:
        if r <= 4096 or max_coeff * (r * r + r + 1) >= 2**62:
            return sum(
                1 for x in range(r) if (form.alpha * x * x + form.beta * x + form.gamma) % r == 0
            )
        import numpy as np

        x = np.arange(r, dtype=np.int64)
        vals = (form.alpha * x * x + form.beta * x + form.gamma) % r
        return int(np.count_nonzero(vals == 0))
    count = 1
    for p, e in factorize(r).factors:
        count *= len(_roots_mod_prime_power(form, p, e))
        if count == 0:
            return 0
    return count


def local_root_count_fast(form: BinaryQuadraticForm, p: int) -> int:
    """Root count at a prime via the quadratic-residue classification.

    For p away from 2, alpha, and the squarefree discriminant data the count
    is 2 or 0 according to whether the squarefree part of the discriminant is
    a residue mod p; the finitely many exceptional primes fall back to the
    exhaustive count.
    """
    if not form.irreducible:
        raise DomainError("fast root count requires an irreducible form")
    d, r = form.squarefree_disc
    if p > 2 and (2 * form.alpha * d * r) % p != 0:
        return 2 if jacobi(d, p) == 1 else 0
    return local_root_count(form, p)


# Largest p with p*p < 2**63: Euler's criterion squares residues mod p in int64.
_EULER_MAX = 3037000499


def _residues(n: int, moduli):
    """n mod m for each m of an int64 array of moduli below 2**32, exact for
    any Python int n: Horner's rule over the 31-bit limbs of |n|."""
    import numpy as np

    out = np.zeros_like(moduli)
    a = abs(n)
    for shift in range(31 * ((a.bit_length() - 1) // 31), -1, -31):
        out = (out * 2**31 + ((a >> shift) & (2**31 - 1))) % moduli
    return (-out) % moduli if n < 0 else out


def _euler_criterion(a, p):
    """a**((p - 1)/2) mod p for int64 arrays with 0 <= a < p <= _EULER_MAX,
    by square-and-multiply over the bits of each exponent, in place."""
    import numpy as np

    out = np.ones_like(p)
    a = a.copy()
    e = (p - 1) // 2
    bit = np.empty(len(p), dtype=bool)
    while True:
        np.bitwise_and(e, 1, out=bit, casting="unsafe")
        np.multiply(out, a, out=out, where=bit)
        np.remainder(out, p, out=out, where=bit)
        e >>= 1
        if not e.any():
            return out
        np.multiply(a, a, out=a)
        np.remainder(a, p, out=a)


def local_root_counts(form: BinaryQuadraticForm, primes):
    """omega(P, p) at each prime of an int64 array, as int64: the values of
    local_root_count_fast for an irreducible form, of local_root_count for a
    reducible one.

    Away from p = 2 and the primes dividing 2*alpha*d*r, where d*r**2 is the
    discriminant with d squarefree, the count is 2 when d is a square mod p
    and 0 when not; Euler's criterion decides it in int64.  At p = 2 and at
    those primes, local_root_count gives the count.
    """
    import numpy as np

    primes = np.asarray(primes, dtype=np.int64)
    if not form.irreducible:
        counts = (local_root_count(form, p) for p in primes.tolist())
        return np.fromiter(counts, np.int64, len(primes))
    d, r = form.squarefree_disc
    big = primes > _EULER_MAX
    safe = np.where(big, 3, primes)
    exceptional = big | (primes == 2) | (_residues(2 * form.alpha * d * r, safe) == 0)
    counts = np.where(_euler_criterion(_residues(d, safe), safe) == 1, 2, 0)
    for i in np.flatnonzero(exceptional).tolist():
        counts[i] = local_root_count(form, int(primes[i]))
    return counts


def form_has_root(form: BinaryQuadraticForm, p: int) -> bool:
    """True iff P(m, 1) = 0 mod p is solvable (p belongs to the form's prime set)."""
    return local_root_count(form, p) > 0


def hensel_lift(form: BinaryQuadraticForm, p: int, root: int, k: int) -> int:
    """The unique lift of a nonsingular root of P(x, 1) mod p to mod p^k."""
    if k < 1:
        raise DomainError("need k >= 1")
    if form.value(root, 1) % p != 0:
        raise DomainError(f"{root} is not a root mod {p}")
    if (2 * form.alpha * root + form.beta) % p == 0:
        raise DomainError(f"singular root {root} mod {p}: the derivative vanishes")
    x = root % p
    pe = p
    for _ in range(k - 1):
        fx = form.alpha * x * x + form.beta * x + form.gamma
        dfx = (2 * form.alpha * x + form.beta) % p
        t = (-(fx // pe) * pow(dfx, -1, p)) % p
        x += t * pe
        pe *= p
    if form.value(x, 1) % p**k != 0:  # pragma: no cover
        raise InvariantError("Hensel lift failed verification")
    return x


# --------------------------------------------------------------------------
# partner prime sets and the congruence-pair construction
# --------------------------------------------------------------------------


def partner_prime_sets(
    form1: BinaryQuadraticForm,
    form2: BinaryQuadraticForm,
    bound: int,
    excluded: Iterable[int] = (),
) -> tuple[list[int], list[int]]:
    """Primes <= bound splitting exactly one of the two forms.

    First list: root count 2 for form1 and 0 for form2; second list the
    reverse.  The excluded set is removed from both.
    """
    if form1 == form2:
        raise DomainError("the two forms must be distinct")
    if not (form1.irreducible and form2.irreducible):
        raise DomainError("both forms must be irreducible")
    skip = set(excluded)
    primes = _prime_array(max(2, bound))
    w1, w2 = local_root_counts(form1, primes), local_root_counts(form2, primes)
    first, second = (
        [p for p in primes[(a == 2) & (b == 0)].tolist() if p not in skip]
        for a, b in ((w1, w2), (w2, w1))
    )
    return first, second


def exceptional_primes(
    form1: BinaryQuadraticForm, form2: BinaryQuadraticForm, r: int = 1
) -> set[int]:
    """Primes to avoid when building partner sets for a monic pair.

    Divisors of 2 * gamma1 * gamma2 * disc1 * disc2 * P1(gamma2-gamma1,
    beta1-beta2), together with the primes dividing r!.
    """
    for f in (form1, form2):
        if f.alpha != 1:
            raise DomainError("the construction needs monic forms m^2 + beta*m*n + gamma*n^2")
    if form1 == form2 or not (form1.irreducible and form2.irreducible):
        raise DomainError("forms must be distinct and irreducible")
    a = (
        2
        * form1.gamma
        * form2.gamma
        * (form1.beta**2 - 4 * form1.gamma)
        * (form2.beta**2 - 4 * form2.gamma)
        * form1.value(form2.gamma - form1.gamma, form1.beta - form2.beta)
    )
    if a == 0:  # pragma: no cover
        raise InvariantError("exceptional-prime product vanished for a valid pair")
    out = set(factorize(a).prime_set())
    out.update(p for p in sieve_primes(max(2, r)) if p <= r)
    return out


@dataclass(frozen=True)
class CongruencePair:
    """Residues (a, b) mod Q realizing prescribed divisibility in both forms."""

    a: int
    b: int
    q: int
    q1: int
    q2: int
    primes1: tuple[int, ...]
    primes2: tuple[int, ...]
    excluded: tuple[int, ...]


def _exact_divisibility_root(form: BinaryQuadraticForm, p: int, l: int) -> int:
    """x <= p^(l+1) with p^l exactly dividing P(x, 1), from a nonsingular root."""
    base = next(
        x for x in _roots_mod_prime(form, p) if (2 * form.alpha * x + form.beta) % p != 0
    )
    x = hensel_lift(form, p, base, l)
    fx = form.value(x, 1)
    dfx = (2 * form.alpha * x + form.beta) % p
    s = (fx // p**l) % p
    for t in range(p):
        if (s + t * dfx) % p != 0:
            x = x + t * p**l
            break
    val = form.value(x, 1)
    if val % p**l != 0 or val % p ** (l + 1) == 0:  # pragma: no cover
        raise InvariantError("exact divisibility adjustment failed")
    return x


def construct_congruence_pair(
    form1: BinaryQuadraticForm,
    form2: BinaryQuadraticForm,
    r: int,
    k: int,
    exponents: Mapping[int, int],
) -> CongruencePair:
    """Find a, b in [Q], Q = prod_{p<=K} p^{2K}, with P_j(a, b) = 1 mod r! and
    gcd(P_j(a, b), Q) = prod of the prescribed partner-prime powers.

    Per partner prime the pair is pinned to (root, 1) with the root adjusted
    for exact divisibility; all remaining primes <= K get (a, b) = (1, 0), so
    both monic forms evaluate to 1 there.  The advertised congruences are
    re-verified with exact arithmetic before returning.
    """
    if r < 1 or k < 1:
        raise DomainError("need r >= 1 and K >= 1")
    excluded = exceptional_primes(form1, form2, r)
    if any(p > k for p in excluded):
        raise DomainError(
            f"K = {k} is below the largest excluded prime {max(excluded)}; enlarge K"
        )
    p1, p2 = partner_prime_sets(form1, form2, k, excluded)
    needed = set(p1) | set(p2)
    if set(exponents) != needed:
        raise DomainError(
            f"exponent assignment must cover exactly the partner primes <= K: {sorted(needed)}"
        )
    if any(not 1 <= l <= 3 * k // 2 for l in exponents.values()):
        raise DomainError("exponents must lie in [1, 3K/2]")
    rfact = math.factorial(r)
    for p, e in factorize(rfact).factors if rfact > 1 else []:
        if e > 2 * k:
            raise DomainError(f"r! needs {p}^{e} > {p}^{2 * k}; enlarge K")

    cong_a, cong_b = [], []
    for p in sieve_primes(k):
        mod = p ** (2 * k)
        if p in p1:
            x = _exact_divisibility_root(form1, p, exponents[p])
            if form2.value(x, 1) % p == 0:  # pragma: no cover
                raise InvariantError(f"partner prime {p} divides both forms")
            cong_a.append((x, mod))
            cong_b.append((1, mod))
        elif p in p2:
            x = _exact_divisibility_root(form2, p, exponents[p])
            if form1.value(x, 1) % p == 0:  # pragma: no cover
                raise InvariantError(f"partner prime {p} divides both forms")
            cong_a.append((x, mod))
            cong_b.append((1, mod))
        else:
            cong_a.append((1, mod))
            cong_b.append((0, mod))

    a, q = crt(cong_a)
    b, q_check = crt(cong_b)
    if q != q_check:  # pragma: no cover
        raise InvariantError("modulus mismatch in CRT gluing")
    a = a if a != 0 else q
    b = b if b != 0 else q

    q1 = math.prod(p ** exponents[p] for p in p1) if p1 else 1
    q2 = math.prod(p ** exponents[p] for p in p2) if p2 else 1
    for form, qj in ((form1, q1), (form2, q2)):
        val = form.value(a, b)
        if val % rfact != 1 % rfact:
            raise InvariantError(f"P(a,b) = {val} is not 1 mod {r}!")
        if gcd(val, q) != qj:
            raise InvariantError(f"gcd(P(a,b), Q) = {gcd(val, q)}, expected {qj}")
    return CongruencePair(
        a=a,
        b=b,
        q=q,
        q1=q1,
        q2=q2,
        primes1=tuple(p1),
        primes2=tuple(p2),
        excluded=tuple(sorted(excluded)),
    )
