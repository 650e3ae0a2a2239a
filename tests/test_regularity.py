import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpairs.arith import jacobi, sieve_primes
from qpairs.errors import DomainError, ResourceError
from qpairs import regularity
from qpairs.regularity import (
    Coloring,
    EquationTriple,
    NOT_PR,
    PR_CONDITIONAL,
    PR_UNCONDITIONAL,
    UNKNOWN,
    classify,
    coloring_from_name,
    enumerate_solutions,
    find_qr_obstruction,
    find_split_prime,
    parametric_family,
    verify_no_monochromatic,
)


# --- parametric families -----------------------------------------------------

def test_family_examples():
    tag, gen = parametric_family(EquationTriple(1, 2, 1))
    assert tag == "ac-square" and gen(1, 2, 1) == (2, 4, 6)
    assert 1 * 4 + 2 * 16 == 1 * 36

    tag, gen = parametric_family(EquationTriple(1, 1, 2))
    assert tag == "sum-square" and gen(1, 2, 1) == (-2, 14, 10)
    assert 4 + 196 == 2 * 100

    tag, gen = parametric_family(EquationTriple(1, -1, 1))
    assert tag == "sum-zero" and gen(1, 2, 1) == (5, 3, 4)
    assert 25 - 9 == 16


def test_family_rejects_when_nothing_applies():
    with pytest.raises(DomainError) as err:
        parametric_family(EquationTriple(3, 1, 2))
    assert "nonsquare" in str(err.value)


def test_family_explicit_selection():
    # (1,-1,1) satisfies both the sum-zero and the ac-square conditions
    tag, gen = parametric_family(EquationTriple(1, -1, 1), "ac-square")
    assert tag == "ac-square" and gen(1, 2, 1) == (5, 4, 3)
    with pytest.raises(DomainError):
        parametric_family(EquationTriple(1, 2, 1), "sum-square")
    with pytest.raises(DomainError):
        parametric_family(EquationTriple(1, 2, 1), "mystery")


def test_family_identity_over_grid():
    triples = [(1, 2, 1), (2, 1, 1), (1, 1, 2), (1, -1, 1), (1, 1, 8), (4, 1, 1)]
    for a, b, c in triples:
        tag, gen = parametric_family(EquationTriple(a, b, c))
        for k in range(1, 11):
            for m in range(1, 11):
                for n in range(1, 11):
                    x, y, z = gen(k, m, n)  # generator re-verifies internally
                    assert a * x * x + b * y * y == c * z * z


# --- classifier ----------------------------------------------------------------

GOLDEN = [
    ((1, 2, 1), PR_UNCONDITIONAL),
    ((1, 1, 2), PR_CONDITIONAL),
    ((1, 2, 6), NOT_PR),
    ((3, 5, 30), NOT_PR),
    ((1, 17, 34), UNKNOWN),
    ((8, 3, 66), UNKNOWN),
    ((5, 7, 105), UNKNOWN),
]


def test_classifier_golden_table():
    for triple, expected in GOLDEN:
        verdict = classify(EquationTriple(*triple))
        assert verdict.status == expected, (triple, verdict)


def test_classifier_witnesses():
    v = classify(EquationTriple(1, 2, 6))
    assert v.witness_coloring == Coloring("two-adic")
    v = classify(EquationTriple(3, 5, 30))
    assert v.witness_coloring == Coloring("dyadic", 6)  # 2^3 || a+b = 8, l = 3+3
    v = classify(EquationTriple(1, 1, 3))
    assert v.status == NOT_PR and v.witness_prime == 7


def test_classifier_not_pr_always_carries_witness():
    for triple, expected in GOLDEN:
        v = classify(EquationTriple(*triple))
        if v.status == NOT_PR:
            assert v.witness_coloring is not None or v.witness_prime is not None
        if v.status in (PR_UNCONDITIONAL, PR_CONDITIONAL):
            assert any(k == "fired" for k, _ in v.evidence)


def test_classifier_pair_symmetry():
    # swapping a and b swaps the roles of x and y, same verdict for (x, y)
    for triple, _ in GOLDEN:
        a, b, c = triple
        v1 = classify(EquationTriple(a, b, c))
        v2 = classify(EquationTriple(b, a, c))
        assert v1.status == v2.status


def test_classifier_other_pairs():
    # x^2+2y^2=z^2 is regular w.r.t. (y, z): transformed triple (-1, 2, -1)
    v = classify(EquationTriple(1, 2, 1), "yz")
    assert v.status == PR_UNCONDITIONAL  # a'c' = ac = 1
    # and w.r.t. (x, z) the transform gives (-c, a, -b) = (-1, 1, -2): ac' = 2
    v = classify(EquationTriple(1, 2, 1), "xz")
    assert v.status in (PR_CONDITIONAL, PR_UNCONDITIONAL, UNKNOWN, NOT_PR)
    with pytest.raises(DomainError):
        classify(EquationTriple(1, 2, 1), "zz")


# --- obstruction primes -----------------------------------------------------------

def squares_mod(p):
    return {(x * x) % p for x in range(1, p)}


def test_qr_obstruction_examples():
    assert find_qr_obstruction(EquationTriple(1, 1, 3)) == 7
    assert squares_mod(7) == {1, 2, 4}  # 3 and 6 absent
    assert find_qr_obstruction(EquationTriple(1, 1, 1)) is None  # ac = 1 square

    # exhaustive-squares oracle gives 17 as the smallest witness for (1,1,7)
    def oracle(a, b, c):
        for p in sieve_primes(100):
            if p == 2 or (2 * a * b * c) % p == 0:
                continue
            sq = squares_mod(p)
            if all(v % p not in sq for v in (a * c, b * c, (a + b) * c)):
                return p

    assert oracle(1, 1, 7) == 17
    assert find_qr_obstruction(EquationTriple(1, 1, 7)) == 17


def test_qr_obstruction_zero_sum_is_not_found():
    # (a+b)c = 0 is a square, hence a residue everywhere: no witness exists
    assert find_qr_obstruction(EquationTriple(3, -3, 1)) is None


def test_split_prime_goldens():
    assert find_split_prime([-1], [2]) == 5
    assert jacobi(-1, 5) == 1 and jacobi(2, 5) == -1
    assert find_split_prime([2], [3]) == 7
    assert jacobi(2, 7) == 1 and jacobi(3, 7) == -1
    assert find_split_prime([], [-1]) == 3
    assert jacobi(-1, 3) == -1
    with pytest.raises(DomainError):
        find_split_prime([2], [2])
    with pytest.raises(DomainError):
        find_split_prime([4], [])


def test_split_prime_verified_posthoc():
    cases = [([5], [3, 7]), ([-1, 2], [11]), ([3], [-1, 5]), ([2, 13], [3])]
    for f1, f2 in cases:
        p = find_split_prime(f1, f2)
        assert p is not None
        assert all(jacobi(v, p) == 1 for v in f1)
        assert all(jacobi(v, p) == -1 for v in f2)


# --- enumeration --------------------------------------------------------------------

def test_enumerate_examples():
    sols = enumerate_solutions(EquationTriple(1, 2, 6), 10)
    assert (2, 1, 1) in sols
    sols = enumerate_solutions(EquationTriple(1, 1, 1), 15)
    assert (3, 4, 5) in sols and (4, 3, 5) in sols
    assert enumerate_solutions(EquationTriple(1, 1, 3), 100) == []


def test_enumeration_is_exhaustive_and_sound():
    t = EquationTriple(1, 2, 6)
    sols = set(enumerate_solutions(t, 40))
    brute = set()
    for x in range(1, 41):
        for y in range(1, 41):
            s = x * x + 2 * y * y
            if s % 6 == 0:
                z = math.isqrt(s // 6)
                if z >= 1 and 6 * z * z == s:
                    brute.add((x, y, z))
    assert sols == brute


def _enumerate_full_square(t, bound):
    """Reference: every (x, y) of the square, tested by integer square root."""
    a, b, c = t.a, t.b, t.c
    out = []
    ys = np.arange(1, bound + 1, dtype=np.int64)
    by2 = b * ys * ys
    chunk = max(1, 10**6 // bound)
    for x0 in range(1, bound + 1, chunk):
        xs = np.arange(x0, min(x0 + chunk, bound + 1), dtype=np.int64)
        s = (a * xs * xs)[:, None] + by2[None, :]
        q, rem = np.divmod(s, c)
        good = (rem == 0) & (q >= 1)
        z = np.zeros_like(q)
        if good.any():
            z[good] = np.sqrt(q[good].astype(np.float64)).round().astype(np.int64)
            good &= z * z == q
        for i, j in zip(*np.nonzero(good)):
            out.append((int(xs[i]), int(ys[j]), int(z[i, j])))
    out.sort()
    return out


NONZERO = st.integers(-30, 30).filter(bool)


@settings(settings.get_profile("oracle"), max_examples=400)
@given(
    NONZERO,
    NONZERO,
    st.one_of(
        st.sampled_from([1, -1, 2, -2, 3, 5, 6, -6, 8, 30]),
        st.integers(-200, 200).filter(bool),  # |c| > bound included
    ),
    st.integers(1, 60),
)
def test_enumeration_matches_full_square(a, b, c, bound):
    t = EquationTriple(a, b, c)
    assert enumerate_solutions(t, bound) == _enumerate_full_square(t, bound)


@pytest.mark.parametrize("a, b, c, bound", [
    (3, 5, 30, 400),
    (1, 1, 1, 300),  # c = 1: one residue class holds every y
    (2, -1, 1, 300),  # negative b
    (-7, 2, 1, 250),  # negative a
    (1, 1, 2, 200),
    (3, -5, -2, 250),
    (1, 1, 500, 120),  # |c| > bound: each x is its own class
    (-1, 2, 151, 150),
    (1, -2, -161, 150),
])
def test_enumeration_is_the_same_for_any_block(monkeypatch, a, b, c, bound):
    """Blocks of 7 and 64 points cut every residue class into many rows and
    columns; 2**16 is the module's own block."""
    t = EquationTriple(a, b, c)
    want = _enumerate_full_square(t, bound)
    for block in (7, 64, 2**16):
        monkeypatch.setattr(regularity, "_BLOCK", block)
        assert enumerate_solutions(t, bound) == want, block


def test_enumeration_divides_out_common_factor():
    # a*x^2 wrapped in int64 before the common factor was divided out: 852, not 7,755
    base = enumerate_solutions(EquationTriple(3, 5, 30), 10000)
    assert len(base) == 7755
    scale = 10**12
    assert enumerate_solutions(EquationTriple(3 * scale, 5 * scale, 30 * scale), 10000) == base


def test_enumeration_refuses_int64_overflow():
    with pytest.raises(ResourceError):
        enumerate_solutions(EquationTriple(2**61, 1, 1), 10)
    with pytest.raises(ResourceError):
        enumerate_solutions(EquationTriple(1, 2**40, 3), 2**11)
    # a c beyond every value in reach divides none of them
    assert enumerate_solutions(EquationTriple(1, 1, 10**20), 10) == []


# --- colorings ------------------------------------------------------------------------

def test_coloring_rules():
    rado7 = Coloring("rado", 7)
    assert rado7.color(7 * 7 * 3) == 3
    assert rado7.color_count == 6
    two = Coloring("two-adic")
    assert two.color(8) == 1 and two.color(4) == 0 and two.color(3) == 0
    dy = Coloring("dyadic", 6)
    assert dy.color(64 * 5) == 5
    assert dy.color_count == 32
    assert coloring_from_name("rado:7") == rado7
    assert coloring_from_name("dyadic:6") == dy
    for composite in (4, 9, 15, 21, 25):
        with pytest.raises(DomainError):
            Coloring("rado", composite)


def test_coloring_vector_matches_scalar():
    import numpy as np

    values = np.arange(1, 2001, dtype=np.int64)
    for coloring in (Coloring("rado", 7), Coloring("two-adic"), Coloring("dyadic", 6)):
        vec = coloring.color_many(values)
        for v in (1, 2, 7, 48, 49, 96, 448, 1999):
            assert vec[v - 1] == coloring.color(v)


@pytest.mark.parametrize("coloring", [Coloring("rado", 7), Coloring("two-adic"), Coloring("dyadic", 3)])
@pytest.mark.parametrize("values", [[0], [5, 0, 3], [-6], [4, -1]])
def test_color_many_refuses_nonpositive(coloring, values):
    """As color does: 0 would never leave the loops that strip powers of p."""
    with pytest.raises(DomainError):
        coloring.color_many(np.array(values, dtype=np.int64))


def test_verify_no_monochromatic_counts():
    rep = verify_no_monochromatic(EquationTriple(1, 2, 6), Coloring("two-adic"), 2000)
    assert rep.solution_count >= 1
    assert rep.monochromatic_count == 0
    rep = verify_no_monochromatic(EquationTriple(3, 5, 30), Coloring("dyadic", 6), 2000)
    assert rep.monochromatic_count == 0
    rep = verify_no_monochromatic(EquationTriple(1, 1, 2), Coloring("rado", 7), 500)
    assert rep.monochromatic_count > 0
    assert rep.first_counterexample == (1, 7, 5)  # 1 + 49 = 2 * 25, both colored 1


def test_obstruction_consistency():
    # a returned witness prime really blocks monochromatic pairs
    for triple in ((1, 1, 3), (2, 3, 1)):
        t = EquationTriple(*triple)
        p = find_qr_obstruction(t)
        if p is None:
            continue
        rep = verify_no_monochromatic(t, Coloring("rado", p), 1000)
        assert rep.monochromatic_count == 0


def test_verdict_soundness():
    # every NOT_PR verdict's coloring witness blocks all pairs up to 2000
    for triple, expected in GOLDEN:
        v = classify(EquationTriple(*triple))
        if v.status == NOT_PR and v.witness_coloring is not None:
            rep = verify_no_monochromatic(
                EquationTriple(*triple), v.witness_coloring, 2000
            )
            assert rep.monochromatic_count == 0, triple
