"""sympy as an independent oracle for the number theory in arith and for the
unit groups behind the Dirichlet characters; skipped when sympy is absent."""

from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qpairs.arith import factorize, jacobi, sqrt_mod
from qpairs.multfunc import _unit_group_generators, dirichlet_characters
from qpairs.quadrings import fundamental_unit

sympy = pytest.importorskip("sympy")

ORACLE = settings(settings.get_profile("oracle"), max_examples=200)
PRIMES = st.integers(3, 10**9).map(sympy.nextprime)


@ORACLE
@given(st.one_of(
    st.integers(-(10**15), 10**15).filter(bool),
    st.tuples(PRIMES, PRIMES).map(prod),  # semiprimes, past trial division
))
def test_factorize_matches_sympy(n):
    assert factorize(n).factors == tuple(sorted(sympy.factorint(abs(n)).items()))


def _prime_near(anchor: int):
    """The primes just below and past anchor, within 2**12 of it."""
    return st.integers(-(2**12), 2**12).map(lambda d: sympy.prevprime(anchor + d) if d < 0
                                             else sympy.nextprime(anchor + d - 1))


# primes around the end of the trial-division table (2**16), around the
# largest trial divisor before it (10**6), and where rho's cofactors leave
# int64; at most one factor past 2**32 besides, so rho ends in about 2**16 steps
_SMALL = st.one_of(_prime_near(2**16), _prime_near(10**6))
_FACTORS = st.tuples(
    st.lists(_SMALL, max_size=3),
    st.lists(_prime_near(2**32), max_size=1),
    st.lists(_prime_near(2**63), max_size=1),
    st.integers(0, 8),  # a power of 65537, the first prime past 2**16
).map(lambda t: [*t[0], *t[1], *t[2], *[65537] * t[3]]).filter(bool)


@settings(settings.get_profile("oracle"), max_examples=40)  # rho takes 0.1 s on a factor past 2**32
@given(_FACTORS)
def test_factorize_matches_sympy_past_trial_division(factors):
    n = prod(factors)
    assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items()))


@ORACLE
@given(st.integers(-(10**12), 10**12), st.integers(0, 10**9).map(lambda k: 2 * k + 1))
def test_jacobi_matches_sympy(a, n):
    assert jacobi(a, n) == sympy.jacobi_symbol(a, n)


@ORACLE
@given(st.integers(0, 10**12), st.one_of(st.integers(3, 2000).map(sympy.nextprime), PRIMES))
def test_sqrt_mod_matches_sympy(a, p):
    roots = set(sympy.sqrt_mod(a, p, all_roots=True))
    r = sqrt_mod(a, p)
    if roots:
        assert r in roots
    else:
        assert r is None


def test_unit_group_generators_match_sympy():
    for q in range(2, 400):
        gens = _unit_group_generators(q)
        phi = sympy.totient(q)
        assert all(sympy.n_order(g, q) == order for g, order in gens), q
        # the cyclic factors multiply out to the whole unit group
        generated = {
            prod(pow(g, e, q) for (g, _), e in zip(gens, exps)) % q
            for exps in product(*(range(order) for _, order in gens))
        }
        assert len(generated) == prod(order for _, order in gens) == phi, q
        (p, e), *rest = sympy.factorint(q).items()
        if p > 2 and not rest:  # the smallest primitive root of an odd prime power
            assert gens == [(sympy.primitive_root(q), phi)]


def test_character_orders_match_unit_orders():
    """The dual group is isomorphic to (Z/qZ)*, so the orders agree as multisets."""
    for q in range(2, 130):
        units = [u for u in range(1, q) if sympy.gcd(u, q) == 1]
        expected = sorted(sympy.n_order(u, q) for u in units)
        assert sorted(chi.order for chi in dirichlet_characters(q)) == expected, q


def test_fundamental_units_match_diop_dn():
    """The unit (x + y sqrt(D))/2 of Z[(1 + sqrt(D))/2], D = 1 mod 4
    squarefree, has the least y >= 1 among sympy's solutions of
    x^2 - D y^2 = +-4 with x = y mod 2, for D below 1000 and a few past the
    old scan's y < 10^6."""
    from sympy.solvers.diophantine.diophantine import diop_DN

    for dd in [*range(5, 1000, 4), 241, 1009, 2029, 4597]:
        if not sympy.ntheory.factor_.core(dd) == dd:
            continue
        u, nrm = fundamental_unit(-dd)
        x, y = 2 * u.m + u.n, u.n
        assert x * x - dd * y * y == 4 * nrm, dd
        sols = [
            (abs(a), abs(b), target // 4)
            for target in (-4, 4)
            for a, b in diop_DN(dd, target)
            if b != 0 and (a - b) % 2 == 0
        ]
        assert min(sols, key=lambda t: t[1]) == (x, y, nrm), dd
