"""Reference loops: fixed work in the benchmark's own code, timed next
to the program's operations to scale their times to an uncontended host.

The host the bounds were set on shares its cores with other tenants.
They slow interpreter-bound code by up to 1.7x in spells of a second to
minutes, and array-bound code by less and more slowly, so the raw medians
of runs minutes apart differ by more than the bounds.  A timing times the
nominal duration of the reference of its kind over the reference's
duration at the same moment reads what it would on the uncontended host.

* Served grids (T0-hot re-serves, first-touch grids from the store) are
  interpreter-bound.  Each is paired with one :func:`interp_ref_ms`,
  timed right after it in the same process.
* Cold grids are mostly fold kernels over arrays larger than the caches.
  Each is paired with the mean of two :func:`array_ref_ms`, timed in the
  driver just before the grid's process starts and just after it ends,
  so the reference's memory never counts in the grid's peak RSS.
"""

from __future__ import annotations

import functools
import json
import time

#: Nominal durations (ms): the 5th percentile of each loop's durations
#: over 40 minutes on the 2-vCPU 2.0 GHz Xeon host, Python 3.11.7,
#: NumPy 2.4.6.
INTERP_REF_MS = 2.5
ARRAY_REF_MS = 480.0


def interp_ref_ms() -> float:
    """Duration of fixed interpreter-bound work: dict updates, a sort
    and a JSON encoding."""
    start = time.perf_counter()
    counts = {}
    for i in range(15000):
        key = i % 997
        counts[key] = counts.get(key, 0) + i
    json.dumps(sorted(counts.items()))
    return 1000.0 * (time.perf_counter() - start)


@functools.lru_cache(maxsize=None)
def _keys():
    import numpy as np
    return np.random.default_rng(0).integers(0, 1 << 40, 1 << 21)


def array_ref_ms() -> float:
    """Duration of fixed array-bound work on 16 MiB of keys: a stable
    argsort, a gather and a cumulative sum, as in the fold kernels."""
    import numpy as np
    keys = _keys()
    start = time.perf_counter()
    order = np.argsort(keys, kind="stable")
    np.cumsum(keys[order] & 0xFFFF)
    return 1000.0 * (time.perf_counter() - start)


def interp_scale() -> float:
    return INTERP_REF_MS / interp_ref_ms()


def array_scale(before: float, after: float) -> float:
    return ARRAY_REF_MS / ((before + after) / 2)
