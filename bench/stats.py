"""Order statistics for latency samples."""

from __future__ import annotations

import math

# a reported percentile needs more than this many samples ranked above it
MIN_BEYOND = 10


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> tuple[float, int]:
    """Nearest-rank q-th percentile of ``samples`` and the number of samples
    ranked above it.

    Raises ValueError when ``min_beyond`` or fewer samples lie beyond it, so
    that a tail percentile is never read off its last few samples.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    beyond = len(xs) - rank
    if beyond <= min_beyond:
        raise ValueError(f"p{q:g} of {len(xs)} samples has only {beyond} beyond it; "
                         f"need more than {min_beyond}")
    return xs[rank - 1], beyond
