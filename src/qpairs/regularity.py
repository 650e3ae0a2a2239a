"""Pair regularity of a*x^2 + b*y^2 = c*z^2.

Parametric solution generators for the square cases, the pair classifier with
constructive coloring witnesses, quadratic-residue obstruction primes, the
reciprocity-based residue/nonresidue split search, and exhaustive coloring
verification over enumerated solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Callable, Iterator, Optional

import numpy as np

from .arith import _strip_prime, check_prime_limit, crt, is_prime, is_square, jacobi, primes_in_class
from .caps import caps
from .errors import DomainError, InvariantError, ResourceError
from .quadforms import needs_bigint

# Points (x, y) per block of the solution scan: its int64 arrays take 0.5 MB
# each, so the scan's memory does not grow with the bound.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class EquationTriple:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if 0 in (self.a, self.b, self.c):
            raise DomainError("coefficients must be nonzero")

    def __str__(self) -> str:
        return f"{self.a}x^2+{self.b}y^2={self.c}z^2"


# --------------------------------------------------------------------------
# colorings
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Coloring:
    """A named total coloring of the positive integers.

    rado:p      color n by the residue mod p of its p-free part (p-1 colors)
    two-adic    color n by the parity of its 2-adic valuation (2 colors)
    dyadic:l    color n by its odd part mod 2^l (2^(l-1) colors)
    """

    kind: str
    param: int = 0

    def __post_init__(self):
        if self.kind == "rado":
            if self.param < 3 or not is_prime(self.param):
                raise DomainError("rado coloring needs an odd prime")
        elif self.kind == "dyadic":
            if self.param < 1:
                raise DomainError("dyadic coloring needs l >= 1")
        elif self.kind != "two-adic":
            raise DomainError(f"unknown coloring {self.kind}")

    @property
    def color_count(self) -> int:
        if self.kind == "rado":
            return self.param - 1
        if self.kind == "two-adic":
            return 2
        return 1 << (self.param - 1)

    def color(self, n: int) -> int:
        if n <= 0:
            raise DomainError("colorings are defined on positive integers")
        if self.kind == "rado":
            p = self.param
            while n % p == 0:
                n //= p
            return n % p
        if self.kind == "two-adic":
            v = 0
            while n % 2 == 0:
                n //= 2
                v ^= 1
            return v
        ell = self.param
        while n % 2 == 0:
            n //= 2
        return n % (1 << ell)

    def color_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorized `color` of a positive int64 array: one `arith._strip_prime`
        pass takes out p (rado) or 2, and the color is the residue of what is
        left, or for two-adic the parity of the exponent taken out."""
        v = np.array(values, dtype=np.int64, order="C")  # a copy, stripped through a flat view
        if (v <= 0).any():  # 0 would never leave _strip_prime
            raise DomainError("colorings are defined on positive integers")
        hits, exps = _strip_prime(v.reshape(-1), self.param if self.kind == "rado" else 2)
        if self.kind == "two-adic":
            parity = np.zeros(v.size, dtype=np.int64)
            parity[hits] = exps & 1
            return parity.reshape(v.shape)
        return v % (self.param if self.kind == "rado" else 1 << self.param)

    def spec_string(self) -> str:
        if self.kind == "two-adic":
            return "two-adic"
        return f"{self.kind}:{self.param}"


def coloring_from_name(name: str) -> Coloring:
    """rado:p | two-adic | dyadic:l, with no field more or less."""
    kind, *fields = name.split(":")
    syntax = {"rado": "rado:p", "two-adic": "two-adic", "dyadic": "dyadic:l"}.get(kind)
    if syntax is None:
        raise DomainError(f"unknown coloring {name!r}")
    if len(fields) != syntax.count(":"):
        raise DomainError(f"bad coloring {name!r}: expected {syntax}")
    return Coloring(kind, *map(int, fields))


# --------------------------------------------------------------------------
# parametric solution families
# --------------------------------------------------------------------------


def _isqrt_exact(n: int) -> int:
    r = isqrt(n)
    if r * r != n:
        raise InvariantError(f"{n} expected to be a perfect square")
    return r


def parametric_family(t: EquationTriple, family: str = "auto"):
    """(family tag, generator).  generator(k, m, n) -> (x, y, z), each emitted
    triple re-verified exactly.

    An explicit family name forces that family (its square condition is still
    required).  Families, tried in this order under "auto":
      sum-zero    x = k (m^2 + a c n^2),  y = k (m^2 - a c n^2), z = 2 k a m n
      ac-square   x = k c (a m^2 - b n^2), y = 2 k a c m n, z = k d (a m^2 + b n^2)
      bc-square   the same with x <-> y and a <-> b
      sum-square  x = k c (m^2 - 2 b m n - a b n^2),
                  y = k c (m^2 + 2 a m n - a b n^2), z = k d (m^2 + a b n^2)
    """
    a, b, c = t.a, t.b, t.c

    def checked(make: Callable[[int, int, int], tuple[int, int, int]]):
        def gen(k: int, m: int, n: int) -> tuple[int, int, int]:
            x, y, z = make(k, m, n)
            if a * x * x + b * y * y != c * z * z:
                raise InvariantError(f"emitted ({x},{y},{z}) fails the equation")
            return x, y, z

        return gen

    if family not in ("auto", "sum-zero", "ac-square", "bc-square", "sum-square"):
        raise DomainError(f"unknown family {family!r}")

    def wants(tag: str) -> bool:
        return family in ("auto", tag)

    if wants("sum-zero") and a + b == 0:
        return "sum-zero", checked(
            lambda k, m, n: (
                k * (m * m + a * c * n * n),
                k * (m * m - a * c * n * n),
                2 * k * a * m * n,
            )
        )
    if wants("ac-square") and is_square(a * c):
        d = _isqrt_exact(a * c)
        return "ac-square", checked(
            lambda k, m, n: (
                k * c * (a * m * m - b * n * n),
                2 * k * a * c * m * n,
                k * d * (a * m * m + b * n * n),
            )
        )
    if wants("bc-square") and is_square(b * c):
        d = _isqrt_exact(b * c)
        return "bc-square", checked(
            lambda k, m, n: (
                2 * k * b * c * m * n,
                k * c * (b * m * m - a * n * n),
                k * d * (b * m * m + a * n * n),
            )
        )
    if wants("sum-square") and a + b != 0 and is_square((a + b) * c):
        d = _isqrt_exact((a + b) * c)
        return "sum-square", checked(
            lambda k, m, n: (
                k * c * (m * m - 2 * b * m * n - a * b * n * n),
                k * c * (m * m + 2 * a * m * n - a * b * n * n),
                k * d * (m * m + a * b * n * n),
            )
        )
    if family != "auto":
        raise DomainError(f"family {family} does not apply to {t}: its square condition fails")
    raise DomainError(
        f"no parametric family applies to {t}: "
        f"ac={a * c}, bc={b * c}, (a+b)c={(a + b) * c} are all nonsquare and a+b != 0"
    )


# --------------------------------------------------------------------------
# classifier
# --------------------------------------------------------------------------

PR_UNCONDITIONAL = "PR_UNCONDITIONAL"
PR_CONDITIONAL = "PR_CONDITIONAL_ON_C2QUADRATIC"
NOT_PR = "NOT_PR"
UNKNOWN = "UNKNOWN"

_PAIRS = {"xy": ("x", "y"), "xz": ("x", "z"), "yz": ("y", "z")}


@dataclass(frozen=True)
class Verdict:
    status: str
    pair: str
    evidence: tuple[tuple[str, object], ...]
    witness_coloring: Optional[Coloring] = None
    witness_prime: Optional[int] = None

    def to_dict(self) -> dict:
        out = {
            "status": self.status,
            "pair": self.pair,
            "evidence": [list(e) for e in self.evidence],
        }
        if self.witness_coloring is not None:
            out["witness_coloring"] = self.witness_coloring.spec_string()
        if self.witness_prime is not None:
            out["witness_prime"] = self.witness_prime
        return out


def _transform_for_pair(t: EquationTriple, pair: str) -> EquationTriple:
    """Rewrite the equation so the requested pair becomes (x, y).

    (y,z): a z'^2 + b y'^2 = c x'^2 with (a',b',c') = (-c, b, -a).
    (x,z): swap a and b first, then apply the (y,z) rewrite.
    """
    if pair == "xy":
        return t
    if pair == "yz":
        return EquationTriple(-t.c, t.b, -t.a)
    if pair == "xz":
        return EquationTriple(-t.c, t.a, -t.b)
    raise DomainError(f"unknown pair {pair!r} (use xy, xz, yz)")


def _two_adic_case_applies(a: int, b: int, prod: int) -> bool:
    """a = 2 mod 4, b odd, and a*b*(a+b)*c a perfect square (prod carries c)."""
    return a % 4 == 2 and b % 2 == 1 and is_square(prod)


def classify(t: EquationTriple, pair: str = "xy", prime_limit: int = 10**5) -> Verdict:
    """Decide pair regularity where the theory decides it; UNKNOWN otherwise.

    Order: pair transformation, unconditional square tests, the conditional
    (a+b)c test (zero counts as a square), then the obstruction tests.  The
    two-adic and dyadic witnesses are checked before quadratic-residue
    obstruction primes so verdicts stay reproducible.  A prime limit <= 0 is
    refused whichever test decides.
    """
    check_prime_limit(prime_limit)
    base = _transform_for_pair(t, pair)
    a, b, c = base.a, base.b, base.c
    ac, bc, sc = a * c, b * c, (a + b) * c
    abab = a * b * (a + b) * c
    evidence: list[tuple[str, object]] = [
        ("transformed_triple", (a, b, c)),
        ("ac", ac),
        ("bc", bc),
        ("(a+b)c", sc),
        ("ab(a+b)c", abab),
    ]

    if is_square(ac):
        evidence.append(("fired", "ac is a perfect square"))
        return Verdict(PR_UNCONDITIONAL, pair, tuple(evidence))
    if is_square(bc):
        evidence.append(("fired", "bc is a perfect square"))
        return Verdict(PR_UNCONDITIONAL, pair, tuple(evidence))
    if sc == 0 or is_square(sc):
        evidence.append(("fired", "(a+b)c is a perfect square (zero counts)"))
        return Verdict(PR_CONDITIONAL, pair, tuple(evidence))

    # two-adic obstruction, symmetric in (a, b)
    if _two_adic_case_applies(a, b, abab) or _two_adic_case_applies(b, a, abab):
        evidence.append(("fired", "a=2 mod 4, b odd, ab(a+b)c square: two-adic obstruction"))
        return Verdict(NOT_PR, pair, tuple(evidence), witness_coloring=Coloring("two-adic"))

    # dyadic obstruction (a, b both odd, so symmetric as stated)
    if (
        a % 2 == 1
        and b % 2 == 1
        and c % 4 == 2
        and abab != 0
        and is_square(abab)
        and (a * b) % 8 != 1
    ):
        d = ((a + b) & -(a + b)).bit_length() - 1  # 2-adic valuation of a+b
        ell = d + 3
        evidence.append(
            ("fired", f"a,b odd, c=2 mod 4, ab(a+b)c nonzero square, ab!=1 mod 8: dyadic l={ell}")
        )
        return Verdict(NOT_PR, pair, tuple(evidence), witness_coloring=Coloring("dyadic", ell))

    # all four quantities nonsquare: a residue obstruction prime exists
    if not is_square(abab):
        p = find_qr_obstruction(base, prime_limit)
        if p is None:  # pragma: no cover - the witness exists; enlarge and retry
            p = find_qr_obstruction(base, 100 * prime_limit)
        if p is None:  # pragma: no cover
            raise InvariantError("guaranteed residue obstruction prime not found")
        evidence.append(("fired", f"ac, bc, (a+b)c, ab(a+b)c all nonsquare: prime witness {p}"))
        return Verdict(
            NOT_PR,
            pair,
            tuple(evidence),
            witness_prime=p,
            witness_coloring=Coloring("rado", p),
        )

    evidence.append(("note", "ab(a+b)c square: necessity passed, sufficiency unknown"))
    return Verdict(UNKNOWN, pair, tuple(evidence))


def find_qr_obstruction(t: EquationTriple, prime_limit: int = 10**5) -> Optional[int]:
    """Smallest prime p (not dividing 2abc) with ac, bc, (a+b)c all
    nonresidues mod p, or None.

    A square value (including (a+b)c = 0) is a residue mod every prime, so in
    that case no witness exists at any limit and None is returned at once,
    after a limit <= 0 is refused.
    """
    check_prime_limit(prime_limit)
    a, b, c = t.a, t.b, t.c
    targets = (a * c, b * c, (a + b) * c)
    if any(v >= 0 and is_square(v) for v in targets):
        return None
    for p in primes_in_class(0, 1, prime_limit):
        if p == 2 or (2 * a * b * c) % p == 0:
            continue
        if all(jacobi(v, p) == -1 for v in targets):
            return p
    return None


def find_split_prime(
    f1: Iterator[int] | list[int],
    f2: Iterator[int] | list[int],
    limit: int = 10**6,
) -> Optional[int]:
    """A prime p making every element of f1 a residue and every element of f2
    a nonresidue mod p (elements are primes or -1).

    Builds the CRT class dictated by quadratic reciprocity and returns the
    smallest prime in it, up to limit, that passes the split check.
    """
    s1, s2 = set(f1), set(f2)
    if s1 & s2:
        raise DomainError("the two sets must be disjoint")
    for v in s1 | s2:
        if v != -1 and not is_prime(v):
            raise DomainError(f"{v} is neither -1 nor a prime")
    odd = sorted(q for q in (s1 | s2) if q not in (-1, 2))

    # p = 1 mod 4 makes -1 a residue, p = 3 mod 4 a nonresidue, and p mod 8
    # then settles 2.  An odd q is a residue mod p iff p is one mod q, except
    # that reciprocity flips this when p = q = 3 mod 4.
    one_mod_4 = -1 in s1
    mod_8 = (1 if 2 in s1 else 5) if one_mod_4 else (7 if 2 in s1 else 3)
    congruences = [(mod_8, 8)]
    for q in odd:
        flip = not one_mod_4 and q % 4 == 3
        congruences.append((_residue_class(q, (q in s1) != flip), q))

    residue, modulus = crt(congruences)
    return next(
        (p for p in primes_in_class(residue, modulus, limit)
         if all(jacobi(v, p) == 1 for v in s1) and all(jacobi(v, p) == -1 for v in s2)),
        None,
    )


def _residue_class(q: int, want_residue: bool) -> int:
    if want_residue:
        return 1
    return next(i for i in range(2, q) if jacobi(i, q) == -1)


# --------------------------------------------------------------------------
# enumeration and coloring verification
# --------------------------------------------------------------------------


def enumerate_solutions(t: EquationTriple, bound: int) -> list[tuple[int, int, int]]:
    """All positive solutions with x, y <= bound (z determined, any size).

    Scans only the (x, y) with c | a*x^2 + b*y^2: the x of one residue class r
    mod |c| (each x on its own when |c| > bound) against the y with
    b*y^2 = -a*r^2 (mod |c|), in blocks of at most _BLOCK points (rows of x
    against at most _BLOCK of those y), and tests c*z^2 = a*x^2 + b*y^2 by
    integer square root; exact, lexicographically sorted.  So the scan holds
    a few int64 arrays of one block (0.5 MB each) at a time, whatever the
    bound.  Raises ResourceError when a*x^2 + b*y^2 could overflow int64.
    """
    if bound < 1:
        raise DomainError("bound must be positive")
    if bound > caps().enumerate_bound:
        raise ResourceError(f"bound {bound} exceeds cap {caps().enumerate_bound}")
    g = gcd(t.a, t.b, t.c)  # dividing it out leaves the solutions unchanged
    a, b, c = t.a // g, t.b // g, t.c // g
    largest = (abs(a) + abs(b)) * bound * bound
    if needs_bigint(largest):
        raise ResourceError(
            f"a*x^2 + b*y^2 with (a, b) = ({a}, {b}) overflows int64 at bound {bound}"
        )
    modulus = abs(c)
    if modulus > largest:  # c divides no nonzero value in reach
        return []
    ys = np.arange(1, bound + 1, dtype=np.int64)
    by2 = b * ys * ys
    residue = by2 % modulus
    order = np.argsort(residue)  # y grouped by b*y^2 mod |c|
    residue = residue[order]
    out: list[tuple[int, int, int]] = []
    for r in range(1, min(modulus, bound) + 1):
        want = (-a * r * r) % modulus
        cls = order[np.searchsorted(residue, want) : np.searchsorted(residue, want, "right")]
        x_class = np.arange(r, bound + 1, modulus, dtype=np.int64)
        for y0 in range(0, len(cls), _BLOCK):
            y, by2_class = ys[cls[y0 : y0 + _BLOCK]], by2[cls[y0 : y0 + _BLOCK]]
            rows = max(1, _BLOCK // len(y))
            for x0 in range(0, len(x_class), rows):
                xs = x_class[x0 : x0 + rows]
                q = ((a * xs * xs)[:, None] + by2_class[None, :]) // c  # exact: c divides
                good = q >= 1
                z = np.zeros_like(q)
                if good.any():
                    z[good] = np.sqrt(q[good].astype(np.float64)).round().astype(np.int64)
                    good &= z * z == q
                i, j = np.nonzero(good)
                out.extend(zip(xs[i].tolist(), y[j].tolist(), z[i, j].tolist()))
    out.sort()
    return out


@dataclass(frozen=True)
class ColoringReport:
    solution_count: int
    monochromatic_count: int
    first_counterexample: Optional[tuple[int, int, int]]


def verify_no_monochromatic(t: EquationTriple, coloring: Coloring, bound: int) -> ColoringReport:
    """Exact counts of solutions and of same-colored pairs x != y among them."""
    sols = enumerate_solutions(t, bound)
    if not sols:
        return ColoringReport(0, 0, None)
    arr = np.array(sols, dtype=np.int64)
    distinct = arr[:, 0] != arr[:, 1]
    cx = coloring.color_many(arr[:, 0])
    cy = coloring.color_many(arr[:, 1])
    mono = distinct & (cx == cy)
    count = int(np.count_nonzero(mono))
    first = tuple(int(v) for v in arr[np.nonzero(mono)[0][0]]) if count else None
    return ColoringReport(len(sols), count, first)
