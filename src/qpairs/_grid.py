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
summation tree.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

from .arith import fsum_complex
from .errors import DomainError

_DEFAULT_STRIPE = 128
_TILE_POINTS = 1 << 16


def stripe_ranges(n: int, stripe: int = _DEFAULT_STRIPE) -> list[tuple[int, int]]:
    return [(lo, min(lo + stripe, n + 1)) for lo in range(1, n + 1, stripe)]


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

        with ThreadPoolExecutor(max_workers=threads) as pool:
            sums = list(pool.map(row_block_sum, blocks))
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
            rows = min(_DEFAULT_STRIPE, self.n)
            buffers = self._local.buffers = [np.empty((rows, self.n), dt) for dt in self._dtypes]
        count, step = len(ms), max(1, _TILE_POINTS // self.n)
        tiles = [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]
        return tiles, [buf[:count] for buf in buffers]
