"""Resource caps, per run.

Every potentially unbounded computation checks one of these before
allocating.  The caps in force are a frozen `Caps` held in a context
variable: code reads them through `caps()`, and `override(**fields)`
replaces some fields for the body of a `with` block, as `cli.main` does for
--cap-n.  So a run's caps are seen by that run only, never by another
thread, and they end with the block.  Stripe worker threads run each block
in a copy of the submitting thread's context (`_grid.striped_complex_mean`),
so they read the caps of the run that started them.  Tests use the defaults.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator


@dataclass(frozen=True)
class Caps:
    # Largest prime sieved.  A prime window (distances, concentration
    # exponents, additive sums, profiles) streams its primes segment by
    # segment: a 1 MB bool buffer for 2**21 integers and that segment's
    # primes as int64, whatever the window; so does a prime search in a
    # residue class.  A prime array, as prime overrides, partner sets and
    # sieve_primes take, keeps 8 B per prime, 46 MB for the 5,761,455 primes
    # to 10**8; it is concatenated from the same segments' primes, so its
    # build holds twice that and no sieve of the whole range.  Factorization
    # needs no sieve: it reads a fixed table of the primes below 2**16.
    sieve_limit: int = 10**8
    # Largest completely-multiplicative value table.  The Liouville table costs
    # 1 bit per entry (about 50 MB here), built in segments of 2**20 entries
    # whose working arrays take 3 MB; growing it briefly holds the old table
    # too.  4e8 covers grid_n for the README forms:
    # shifted_value_bound([1,0,2], 1, 0, 0, 10**4) is 3e8.
    value_sieve_limit: int = 4 * 10**8
    # Largest character modulus.  One character mod q is built alone from one
    # walk of the unit group's generators: O(q) time and 16 B per table entry
    # (160 kB at the cap); `dirichlet_characters(q)` builds all phi(q) of them.
    dirichlet_modulus: int = 10**4
    box_count_n: int = 10**4          # lattice box half-width for norm counting
    enumerate_bound: int = 10**4      # solution enumeration in x, y
    folner_k: int = 7                 # full Folner enumeration
    grid_n: int = 10**4               # grid averages [N]^2
    lift_work: int = 10**6            # root-lifting work per prime power


_current: ContextVar[Caps] = ContextVar("qpairs_caps", default=Caps())


def caps() -> Caps:
    """The caps in force in the calling context."""
    return _current.get()


@contextmanager
def override(**fields: int) -> Iterator[None]:
    """Run the with-body under the current caps with the given fields
    replaced; the caps in force before are back when the block exits."""
    token = _current.set(replace(_current.get(), **fields))
    try:
        yield
    finally:
        _current.reset(token)
