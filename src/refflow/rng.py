"""Seed-derived random streams and order-stable parallel mapping.

Every random draw in the package flows from one root seed through named
streams: stream(seed, kind, module, unit) hashes the labels to a SeedSequence
spawn key, so the stream for a given (experiment kind, module, work-unit
index) is reproducible and independent of how many workers execute the units.
map_units returns unit results in unit order, so outputs are bit-identical
for any worker count.

Every Monte-Carlo mean the package reports comes from `estimate`, as an
Estimate record: the mean, its standard error and the number of values.
"""

import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

_MASK = (1 << 63) - 1


def stream(seed, *labels):
    """Named reproducible generator derived from the root seed."""
    key = tuple(zlib.crc32(str(lab).encode("utf8")) for lab in labels)
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


def as_rng(seed_or_rng, *labels):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(seed_or_rng, *labels)


def map_units(fn, units, workers=1):
    """Apply fn to work units, preserving unit order in the result list.

    The unit decomposition and per-unit streams never depend on the worker
    count; the pool only changes scheduling, so results are bit-identical
    for any number of workers.
    """
    if workers <= 1 or len(units) <= 1:
        return [fn(u) for u in units]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, units))


class Estimate(NamedTuple):
    """A Monte-Carlo mean of n values and its standard error."""

    estimate: float
    stderr: float
    n: int

    @property
    def inconclusive(self):
        """The stderr exceeds half the estimate's magnitude."""
        return self.stderr > 0.5 * abs(self.estimate)


def estimate(values):
    """The mean of values with the stderr std(ddof=1) / sqrt(n), inf for one value."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    return Estimate(float(v.mean()), float(v.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf, n)
