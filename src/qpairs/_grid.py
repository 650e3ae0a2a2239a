"""Deterministic stripe-parallel grid reductions.

Every n x n grid average in `averaging` and `experiments` is split into row
stripes; each stripe is reduced on its own (numpy, single pass) to one sum
per averaged quantity, and the per-stripe sums are merged with exactly
rounded summation in stripe-index order.  The result is bit-identical whether stripes run sequentially or on a
thread pool, and no array larger than one stripe is built.

A stripe block computes its quantities in tiles of about 2**16 grid points,
whose temporaries (0.5 MB float, 1 MB complex) stay near a core's cache where
a whole stripe's take 4-8 MB each, and writes each tile into a (rows, n)
stripe buffer that its worker thread reuses for every stripe of the
reduction (`StripeTiles`).  The stripe's sum is then one `np.sum` over the
whole buffer, so per-stripe sums do not depend on the tile size: tiles
change where the elementwise values are computed, not their bits or the
summation tree, as long as no complex product swaps its operands or runs in
place on one element: numpy's complex multiply is not bitwise commutative,
its temporary elision evaluates `x * f()` as `f() * x` from 256 KiB, and a
one-element in-place product takes another kernel.  Such products are
`np.multiply(left, right)` calls.  Every grid average sets up its lattice
through `_lattice`, the one place that picks int64 or Python-int
coordinates for a grid, and those that are a mean of weight * product
of factors (the weighted and plain pair correlations, the Folner probe and
the multilinear probe) share one block, `experiments._striped_products`.
"""

from __future__ import annotations

import contextvars
import math
import threading
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


def striped_complex_mean(
    row_block_sum: Callable[[np.ndarray], tuple], n: int, threads: int = 1
) -> tuple:
    """Means over the n x n grid of quantities produced in row blocks.

    row_block_sum receives the m-values (a slice of 1..n) of one stripe and
    returns a tuple with the sum of each quantity over those rows.  The
    result holds each quantity's mean: complex where the sums are complex,
    float otherwise.
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
    return tuple(
        (fsum_complex(parts) if isinstance(parts[0], complex) else math.fsum(parts)) / (n * n)
        for parts in zip(*sums)
    )


class StripeTiles:
    """Row tiles and reused stripe buffers for the blocks of one striped
    reduction over an n-column grid.

    Each worker thread gets its own buffers, one per dtype given, allocated
    at its first stripe and freed with this object.
    """

    def __init__(self, n: int, *dtypes):
        self.n = n
        self._dtypes = dtypes
        self._local = threading.local()

    def __call__(self, ms: np.ndarray) -> tuple[list[slice], list[np.ndarray]]:
        """The row slices, of max(1, 2**16 // n) rows but the last, that
        cover the stripe's rows ms in order, and the calling thread's buffers
        cut to the contiguous (len(ms), n) arrays the tiles are written into."""
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            rows = min(_STRIPE, self.n)
            buffers = self._local.buffers = [np.empty((rows, self.n), dt) for dt in self._dtypes]
        count, step = len(ms), max(1, _TILE_POINTS // self.n)
        tiles = [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]
        return tiles, [buf[:count] for buf in buffers]


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
