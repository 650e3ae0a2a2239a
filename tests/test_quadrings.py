import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpairs.errors import DomainError
from qpairs.quadrings import (
    QuadraticRing,
    count_ideals,
    count_norm_solutions,
    find_regular_associate,
    fundamental_unit,
    is_regular,
    unit_inverse,
)


def brute_norm_count(d, k, box):
    ring = QuadraticRing(d)
    return sum(
        1
        for m in range(-box, box + 1)
        for n in range(-box, box + 1)
        if ring.element(m, n).norm() == k
    )


def test_ring_structure():
    assert not QuadraticRing(1).half_integer
    assert not QuadraticRing(-2).half_integer
    assert QuadraticRing(3).half_integer
    assert QuadraticRing(-5).half_integer  # -5 = 3 mod 4
    assert QuadraticRing(1).field_discriminant == -4
    assert QuadraticRing(3).field_discriminant == -3
    assert QuadraticRing(1).unit_rank == 0
    assert QuadraticRing(-2).unit_rank == 1
    with pytest.raises(DomainError):
        QuadraticRing(4)
    with pytest.raises(DomainError):
        QuadraticRing(0)


def test_norm_examples():
    assert QuadraticRing(1).element(2, 1).norm() == 5
    assert QuadraticRing(-2).element(1, 1).norm() == -1
    assert QuadraticRing(3).element(1, 1).norm() == 3


def test_norm_multiplicative_exhaustive():
    for d in (1, 2, 3, -2, -3):
        ring = QuadraticRing(d)
        for m1 in range(-10, 11):
            for n1 in range(-10, 11):
                z = ring.element(m1, n1)
                for m2, n2 in ((3, 2), (-1, 4), (0, 1), (7, -5)):
                    w = ring.element(m2, n2)
                    assert (z * w).norm() == z.norm() * w.norm()


def test_conjugation_fixes_norm():
    for d in (1, 2, 3, -2, -5):
        ring = QuadraticRing(d)
        for m in range(-6, 7):
            for n in range(-6, 7):
                z = ring.element(m, n)
                assert z.conjugate().norm() == z.norm()


def test_count_norm_solutions_examples():
    assert count_norm_solutions(1, 5, 10) == brute_norm_count(1, 5, 10) == 8
    assert count_norm_solutions(1, 3, 10) == brute_norm_count(1, 3, 10) == 0
    assert count_norm_solutions(1, 1, 10) == brute_norm_count(1, 1, 10) == 4
    for d in (2, 3, -2, -5):
        for k in (-4, -1, 1, 2, 6, 9):
            assert count_norm_solutions(d, k, 8) == brute_norm_count(d, k, 8)


def test_count_ideals_examples():
    assert count_ideals(1, 5) == 2  # split
    assert count_ideals(1, 2) == 1  # ramified
    assert count_ideals(1, 9) == 1  # inert, even exponent
    assert count_ideals(1, 3) == 0
    assert count_ideals(1, 25) == 3


def test_ideal_count_growth():
    # C_d(l*n) <= 2^s * C_d(n), s = number of primes of l with multiplicity.
    # Stated for all n, the bound fails whenever C_d(n) = 0 from an inert
    # prime with odd exponent but l repairs the parity (C_1(9)=1 > 2*C_1(3)=0),
    # so it is checked where C_d(n) > 0 plus a slack of one repaired factor,
    # together with the summed form the large-divisor bound consumes.
    pairs = ((2, 1), (3, 1), (5, 1), (7, 1), (10, 2), (15, 2))
    for n in range(1, 301):
        base = count_ideals(1, n)
        for l, s in pairs:
            if base > 0:
                assert count_ideals(1, l * n) <= 2**s * base
    for l, s in pairs:
        lhs = sum(count_ideals(1, l * n) for n in range(1, 301))
        rhs = 2**s * sum(count_ideals(1, n) for n in range(1, 301))
        assert lhs <= rhs


def test_ideal_density():
    # mean of C_1(n) approaches pi/4 = 0.785
    for n in (10**3, 10**4):
        total = sum(count_ideals(1, m) for m in range(1, n + 1))
        assert 0.5 <= total / n <= 1.2


def test_fundamental_units():
    u, nrm = fundamental_unit(-2)
    assert (u.m, u.n, nrm) == (1, 1, -1)
    sq = u * u
    assert (sq.m, sq.n, sq.norm()) == (3, 2, 1)
    # oracle: minimal unit > 1 by scanning norm +-1 solutions
    assert _scan_fundamental(-2) == (1, 1)

    u, nrm = fundamental_unit(-3)
    assert (u.m, u.n, nrm) == (2, 1, 1)
    assert _scan_fundamental(-3) == (2, 1)

    u, nrm = fundamental_unit(-5)
    # golden-ratio ring: tau itself is the fundamental unit, norm -1
    assert (u.m, u.n, nrm) == (0, 1, -1)
    assert _scan_fundamental(-5) == (0, 1)

    with pytest.raises(DomainError):
        fundamental_unit(1)


def _scan_fundamental(d):
    """Independent oracle: smallest real embedding > 1 with norm +-1."""
    ring = QuadraticRing(d)
    best = None
    for m in range(-50, 51):
        for n in range(-50, 51):
            z = ring.element(m, n)
            if z.norm() in (1, -1) and z.real_value() > 1 + 1e-12:
                if best is None or z.real_value() < best.real_value():
                    best = z
    return (best.m, best.n)


def _scan_half_integer_unit(d, y_max):
    """The ascending scan in y that found the units of d = 3 mod 4 before the
    continued fraction: the first x^2 - |d| y^2 = -4, then +4, with x = y
    mod 2, as (m, n, norm); None up to y_max."""
    for y in range(1, y_max + 1):
        for target in (-4, 4):
            s = -d * y * y + target
            x = math.isqrt(max(s, 0))
            if s > 0 and x * x == s and (x - y) % 2 == 0:
                return (x - y) // 2, y, target // 4
    return None


def _squarefree(n):
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def test_half_integer_units_match_scan():
    """Every squarefree |d| = 1 mod 4 below 3000 whose unit has y <= 20000
    (the scan's answers), and units the scan never reached: d = -241 has
    y = 9,148,450, past the scan's 10^6."""
    checked = 0
    for dd in range(5, 3000, 4):
        if not _squarefree(dd):
            continue
        u, nrm = fundamental_unit(-dd)
        assert u.norm() == nrm and nrm in (1, -1) and u.m >= 0 and u.n >= 1, dd
        if u.n <= 20000:
            assert _scan_half_integer_unit(-dd, u.n) == (u.m, u.n, nrm), dd
            checked += 1
    assert checked == 301
    u, nrm = fundamental_unit(-241)
    assert (u.m, u.n, nrm) == (66436843, 9148450, -1) and u.norm() == -1
    assert _scan_half_integer_unit(-241, 1000) is None


def test_unit_inverse():
    for d in (-2, -3, -5, -7):
        u, nrm = fundamental_unit(d)
        inv = unit_inverse(u)
        prod = u * inv
        assert (prod.m, prod.n) == (1, 0)


def test_regularity_examples():
    r1 = QuadraticRing(1)
    assert is_regular(r1.element(1, 0), 1, 50)
    assert is_regular(r1.element(2, 1), 3, 30)
    r2 = QuadraticRing(-2)
    stretched = r2.element(3, 2) * r2.element(1, 1)  # unit with huge coordinates
    assert (stretched.m, stretched.n) == (7, 5)
    assert not is_regular(stretched, 2, 30)
    with pytest.raises(DomainError):
        is_regular(r1.element(0, 0), 1, 10)


def _is_regular_loop(z, c_bound, n_max):
    """Reference: every point of the box, divided by z where z divides it."""
    c_frac = Fraction(c_bound)
    k = abs(z.norm())
    num2, den2 = c_frac.numerator**2, c_frac.denominator**2
    for m in range(-n_max, n_max + 1):
        for n in range(-n_max, n_max + 1):
            if m == 0 and n == 0:
                continue
            w = z.ring.element(m, n).divide_exact(z)
            if w is None:
                continue
            box = max(abs(m), abs(n), 1)
            coord = max(abs(w.m), abs(w.n))
            if coord * coord * k * den2 > num2 * box * box:
                return False
    return True


# imaginary, half-integer (d = 3 mod 4) and real rings
RING_DS = (1, 2, 5, 6, 3, 7, 11, 15, -2, -6, -3, -5, -7, -13)

C_BOUNDS = st.one_of(
    st.integers(1, 6),
    st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=12),
    # the CLI passes --c-bound as a float: Fraction(2.1) has a 52-bit denominator
    st.floats(min_value=0.1, max_value=8).map(Fraction),
)


@st.composite
def associates(draw):
    """z = m + n*tau, times u^t with |t| <= 4 in a real ring."""
    d = draw(st.sampled_from(RING_DS))
    m, n = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    assume((m, n) != (0, 0))
    z = QuadraticRing(d).element(m, n)
    if d < 0:
        t = draw(st.integers(-4, 4))
        u, _ = fundamental_unit(d)
        step = u if t > 0 else unit_inverse(u)
        for _ in range(abs(t)):
            z = z * step
    return z


@settings(settings.get_profile("oracle"), max_examples=300)
@given(associates(), C_BOUNDS, st.integers(0, 40))
def test_is_regular_matches_full_box_scan(z, c_bound, n_max):
    assert is_regular(z, c_bound, n_max) == _is_regular_loop(z, c_bound, n_max)


def test_is_regular_python_int_path_matches_full_box_scan():
    """Associates whose height passes 2**62 take the Python-int walk."""
    outcomes = set()
    for d in (-2, -3, -5):
        ring = QuadraticRing(d)
        u, _ = fundamental_unit(d)
        z = ring.element(2, 1)
        while max(abs(z.m), abs(z.n)) < 2**62:
            z = z * u
        for c_bound in (Fraction(2.1), Fraction(1, 3), 10**20, 10**30):
            for n_max in (1, 2, 5):
                got = is_regular(z, c_bound, n_max)
                assert got == _is_regular_loop(z, c_bound, n_max), (d, c_bound, n_max)
                outcomes.add(got)
    assert outcomes == {True, False}


def test_regular_associate():
    r2 = QuadraticRing(-2)
    found = find_regular_associate(r2.element(5, 1), 4, 30, 5)
    assert found is not None
    assoc, t, sign = found
    assert is_regular(assoc, 4, 30)

    found = find_regular_associate(r2.element(1, 0), 1, 30, 5)
    assert found is not None and found[1] == 0

    with pytest.raises(DomainError):
        find_regular_associate(QuadraticRing(1).element(2, 1), 2, 30, 5)


def test_real_count_log_diagnostic_self_consistent():
    from qpairs.quadrings import real_count_log_diagnostic

    c = real_count_log_diagnostic(-2, 60, 25)
    assert math.isfinite(c) and c >= 1.0
    # the fitted constant makes the log-shaped bound hold across the range
    for k in range(-60, 61):
        if k == 0:
            continue
        lattice = count_norm_solutions(-2, k, 25)
        ideals = count_ideals(-2, abs(k))
        ratio = c * 25 / math.sqrt(abs(k))
        bound = (math.log(ratio) if ratio >= 1 else 0.0) * ideals
        assert lattice <= bound + 1e-9
    with pytest.raises(DomainError):
        real_count_log_diagnostic(2, 10, 10)


def test_gaussian_identity_small():
    # C_{1,N}(k) = 4 * ideal count: all Gaussian ideals principal, 4 units
    for k in range(1, 100):
        assert count_norm_solutions(1, k, 40) == 4 * count_ideals(1, k)
