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

import numpy as np

from .arith import (
    _prime_array,
    crt,
    factorize,
    is_prime,
    is_square,
    sieve_primes,
    sqrt_mod,
    squarefree_part,
)
from .caps import caps
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


def shifted_value_bound(
    form: BinaryQuadraticForm | LinearForm, q: int, a: int, b: int, n: int
) -> int:
    """A bound on |P(q*m + a, q*k + b)| over 1 <= m, k <= n, P quadratic or linear."""
    hi = q * n + max(abs(a), abs(b))
    if isinstance(form, LinearForm):
        return (abs(form.u) + abs(form.v)) * hi
    return (abs(form.alpha) + abs(form.beta) + abs(form.gamma)) * hi * hi


def needs_bigint(bound: int) -> bool:
    """True when values up to bound may overflow int64 arithmetic (the one 2**62 guard)."""
    return bound >= 2**62


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
    """Residues x mod p with P(x, 1) = 0 mod p, ascending: a scan at p = 2,
    where 2*alpha has no inverse, and the quadratic formula at odd p."""
    if p == 2:
        return [x for x in range(2) if form.value(x, 1) % 2 == 0]
    a, b, c = form.alpha % p, form.beta % p, form.gamma % p
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


def _lift_root(form: BinaryQuadraticForm, p: int, pe: int, x: int) -> list[int]:
    """The roots x + t*pe mod p*pe of P(x, 1) above a root x mod pe, a power
    of p: one if x is nonsingular (Hensel), else all p or none, as the value
    vanishes mod p*pe or not."""
    fx = form.alpha * x * x + form.beta * x + form.gamma
    dfx = (2 * form.alpha * x + form.beta) % p
    if dfx != 0:
        return [x + (-(fx // pe) * pow(dfx, -1, p)) % p * pe]
    return [x + t * pe for t in range(p)] if fx % (pe * p) == 0 else []


def _roots_mod_prime_power(form: BinaryQuadraticForm, p: int, k: int) -> list[int]:
    """All residues mod p^k where P(x, 1) vanishes, by stepwise lifting
    (`_lift_root`).  Work is capped to keep degenerate forms from exploding.
    """
    work = caps().lift_work
    roots = _roots_mod_prime(form, p)
    pe = p
    for _ in range(k - 1):
        lifted: list[int] = []
        for x in roots:
            lifted += _lift_root(form, p, pe, x)
            if len(lifted) > work:
                raise ResourceError("root lifting exceeded the work cap")
        roots = lifted
        pe *= p
    return sorted(roots)


def local_root_count(form: BinaryQuadraticForm, r: int) -> int:
    """Number of n mod r with P(n, 1) = 0 mod r.

    Multiplicative over the prime powers of r, with the roots mod each
    obtained by lifting.  A factor c of r dividing every coefficient is taken
    out first: P = 0 mod r iff P/c = 0 mod r/c, so the count is c times that
    of P/c mod r/c.
    """
    if r <= 0:
        raise DomainError("modulus must be positive")
    if r == 1:
        return 1
    c = gcd(gcd(gcd(form.alpha, form.beta), form.gamma), r)
    if c > 1:
        reduced = BinaryQuadraticForm(form.alpha // c, form.beta // c, form.gamma // c)
        return c * local_root_count(reduced, r // c)
    count = 1
    for p, e in factorize(r).factors:
        count *= len(_roots_mod_prime_power(form, p, e))
        if count == 0:
            return 0
    return count


# Largest p with p*p < 2**63: Euler's criterion squares residues mod p in int64.
_EULER_MAX = 3037000499


def _residues(n: int, moduli):
    """n mod m for each m of an int64 array of moduli below 2**32, exact for
    any Python int n: Horner's rule over the 31-bit limbs of |n|."""
    out = np.zeros_like(moduli)
    a = abs(n)
    for shift in range(31 * ((a.bit_length() - 1) // 31), -1, -31):
        out = (out * 2**31 + ((a >> shift) & (2**31 - 1))) % moduli
    return (-out) % moduli if n < 0 else out


def _euler_criterion(a, p):
    """a**((p - 1)/2) mod p for int64 arrays with 0 <= a < p <= _EULER_MAX,
    by square-and-multiply over the bits of each exponent, in place."""
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
    """omega(P, p), the number of roots of P(x, 1) mod p, at each prime of an
    int64 array, as int64, for any form.

    With D = beta**2 - 4*alpha*gamma:
      - odd p not dividing alpha: 1 + (D/p), i.e. 1 if p | D, else 2 or 0 as
        Euler's criterion finds D a square mod p or not (in int64);
      - odd p dividing alpha: P(x, 1) is linear mod p, so 1 if p does not
        divide beta, p if p divides beta and gamma, 0 otherwise;
      - p = 2: [gamma even] + [alpha + beta + gamma even];
      - p > _EULER_MAX: local_root_count.
    """
    primes = np.asarray(primes, dtype=np.int64)
    big = primes > _EULER_MAX
    p = np.where(big | (primes == 2), 3, primes)
    a, b, c, d = (_residues(v, p) for v in (form.alpha, form.beta, form.gamma, form.discriminant))
    counts = np.where(d == 0, 1, np.where(_euler_criterion(d, p) == 1, 2, 0))
    counts = np.where(a == 0, np.where(b != 0, 1, np.where(c == 0, p, 0)), counts)
    counts[primes == 2] = (form.gamma % 2 == 0) + ((form.alpha + form.beta + form.gamma) % 2 == 0)
    for i in np.flatnonzero(big).tolist():
        counts[i] = local_root_count(form, int(primes[i]))
    return counts


def local_root_count_fast(form: BinaryQuadraticForm, p: int) -> int:
    """omega(P, p) at one prime p, by the rule of local_root_counts: 1 + (D/p)
    at odd p not dividing alpha, the linear count at p | alpha, two parity
    tests at p = 2.  A p that is not prime is refused."""
    if not is_prime(p):
        raise DomainError(f"fast root count needs a prime modulus, got {p}")
    if p > _EULER_MAX:
        return local_root_count(form, p)
    return int(local_root_counts(form, [p])[0])


def form_has_root(form: BinaryQuadraticForm, p: int) -> bool:
    """True iff P(m, 1) = 0 mod p is solvable (p belongs to the form's prime set)."""
    return local_root_count(form, p) > 0


def hensel_lift(form: BinaryQuadraticForm, p: int, root: int, k: int) -> int:
    """The unique lift of a nonsingular root of P(x, 1) mod p to mod p^k.
    A p that is not prime is refused."""
    if not is_prime(p):
        raise DomainError(f"Hensel lifting needs a prime modulus, got {p}")
    if k < 1:
        raise DomainError("need k >= 1")
    if form.value(root, 1) % p != 0:
        raise DomainError(f"{root} is not a root mod {p}")
    if (2 * form.alpha * root + form.beta) % p == 0:
        raise DomainError(f"singular root {root} mod {p}: the derivative vanishes")
    x = root % p
    pe = p
    for _ in range(k - 1):
        (x,) = _lift_root(form, p, pe, x)  # the derivative stays nonzero mod p
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
    if bound < 2:
        return [], []
    skip = set(excluded)
    primes = _prime_array(bound)
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
