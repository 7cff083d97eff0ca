"""Seed-derived random streams and order-stable parallel mapping.

Every random draw in the package flows from one root seed through named
streams: stream(seed, kind, module, unit) hashes the labels to a SeedSequence
spawn key, so the stream for a given (experiment kind, module, work-unit
index) is reproducible and independent of how many workers execute the units.
map_units returns unit results in unit order, so outputs are bit-identical
for any worker count.
"""

import zlib
from concurrent.futures import ThreadPoolExecutor

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
