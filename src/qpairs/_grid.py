"""Deterministic stripe-parallel grid reductions.

Every n x n grid average in `averaging` and `experiments` (the
Turan-Kubilius accumulator aside) is split into row stripes; each stripe is
reduced on its own (numpy, single pass) to one sum per averaged quantity, and
the per-stripe sums are merged with exactly rounded summation in stripe-index
order.  The result is bit-identical whether stripes run sequentially or on a
thread pool, and no array larger than one stripe is built.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .arith import fsum_complex
from .errors import DomainError

_DEFAULT_STRIPE = 128


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
