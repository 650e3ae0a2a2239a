"""Deterministic stripe-parallel grid reductions.

Every n x n grid average in `averaging` and `experiments` is split into row
stripes of 128 rows, and each stripe into tiles of max(1, 2**16 // n) rows
(`tiled_block`), whose temporaries (0.5 MB float, 1 MB complex) stay near a
core's cache and are freed with the tile.  Each averaged quantity of a tile
is summed by one `np.sum` over the tile's values, where they are computed,
and a stripe block returns those partial sums for each quantity.  The mean
is the exactly rounded sum of every partial sum of the grid, over n^2.  Tile
geometry depends only on n, and the exact sum does not depend on the order
of its terms, so the result is bit-identical whether stripes run
sequentially or on a thread pool.  No array larger than one tile is built,
except by the Turan-Kubilius sieve, which fills a whole stripe and sums it
as one part.

A tile's bits do depend on its shape, and on the order of every complex
product's operands: numpy's complex multiply is not bitwise commutative, its
temporary elision evaluates `x * f()` as `f() * x` from 256 KiB, and a
one-element in-place product takes another kernel.  Such products are
`np.multiply(left, right)` calls with fresh outputs.  Every grid average sets
up its lattice through `_lattice`, the one place that picks int64 or
Python-int coordinates for a grid, and those that are a mean of weight *
product of factors (the weighted and plain pair correlations, the Folner
probe and the multilinear probe) share one block,
`experiments._striped_products`.
"""

from __future__ import annotations

import contextvars
import math
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .arith import fsum_complex
from .caps import caps
from .errors import DomainError, ResourceError
from .multfunc import MultiplicativeFunction, prime_value_table
from .quadforms import BinaryQuadraticForm, LinearForm, needs_bigint, shifted_value_bound

_STRIPE = 128
_TILE_POINTS = 1 << 16


def stripe_ranges(n: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _STRIPE, n + 1)) for lo in range(1, n + 1, _STRIPE)]


def tiled_block(tile_sums: Callable[[np.ndarray], tuple], n: int) -> Callable:
    """The stripe block that cuts a stripe's m-values, in order, into tiles
    of max(1, 2**16 // n) rows, the last possibly shorter, and returns for
    each quantity the partial sums tile_sums(m-values of a tile) gives it."""

    def block(ms: np.ndarray) -> tuple:
        step = max(1, _TILE_POINTS // n)
        return tuple(zip(*(tile_sums(ms[lo : lo + step]) for lo in range(0, len(ms), step))))

    return block


def striped_complex_mean(
    row_block_sum: Callable[[np.ndarray], tuple], n: int, threads: int = 1
) -> tuple:
    """Means over the n x n grid of quantities produced in row blocks.

    row_block_sum receives the m-values (a slice of 1..n) of one stripe and
    returns a tuple with, for each quantity, a sequence of partial sums over
    those rows.  The result holds each quantity's mean, the exactly rounded
    sum of all its partial sums over n^2: complex where any partial sum is
    complex, float otherwise.
    """
    if n < 1:
        raise DomainError("grid size must be >= 1")
    ranges = stripe_ranges(n)
    blocks = [np.arange(lo, hi, dtype=np.int64) for lo, hi in ranges]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # on use: a slow import

        # A worker thread starts in an empty context, so each block runs in a
        # copy of this thread's, where it reads this run's caps.  One copy per
        # block: a context can be entered by one thread at a time.
        contexts = [contextvars.copy_context() for _ in blocks]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            sums = list(pool.map(lambda ctx, ms: ctx.run(row_block_sum, ms), contexts, blocks))
    else:
        sums = [row_block_sum(b) for b in blocks]
    means = []
    for lists in zip(*sums):
        parts = list(chain.from_iterable(lists))
        exact = fsum_complex if any(isinstance(x, complex) for x in parts) else math.fsum
        means.append(exact(parts) / (n * n))
    return tuple(means)


def _lattice(
    fs: Sequence[MultiplicativeFunction],
    forms: Sequence[BinaryQuadraticForm | LinearForm],
    q: int,
    a: int,
    b: int,
    n: int,
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """Set up the lattice (Qm+a, Qn+b) over [n]^2 for the forms.

    Checks the grid cap, builds the value tables of fs once at the grid's
    bound, so that a table past its cap is refused before any allocation,
    and returns (rows, w): w holds the column coordinates Qn+b as a (1, n)
    row, and rows(ms) the row coordinates Qm+a of the m-values ms as a
    (len(ms), 1) column.  Both are int64, or Python ints when the bound
    fails the 2**62 guard (`needs_bigint`); this is the one place a grid
    average picks between them.
    """
    if n > caps().grid_n:
        raise ResourceError(f"grid {n} exceeds cap {caps().grid_n}")
    bound = max(shifted_value_bound(form, q, a, b, n) for form in forms)
    for f in fs:
        prime_value_table(f, bound)
    dtype = object if needs_bigint(bound) else np.int64
    w = (q * np.arange(1, n + 1).astype(dtype) + b)[None, :]
    return lambda ms: (q * ms.astype(dtype) + a)[:, None], w
