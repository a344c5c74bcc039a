"""Per-trace profile memos and the paper's sweep grids.

The paper's figures sweep one axis at a time (cache size, line size,
block size, associativity, tile size) while holding the rest fixed.
:class:`TraceStreams` holds what such a grid reads off one
byte-address trace: one collapsed :class:`LineStream` per line size,
one stack-distance profile per stream and one per-set
:class:`~repro.core.kernels.SetDistanceProfile` per ``(line_size,
n_sets)``, each shared across every configuration that can reuse it,
so a whole associativity sweep costs one kernel pass per distinct set
count instead of one simulation per cell.  The grids themselves run
through :meth:`Engine.run <repro.engine.Engine.run>`, whose in-RAM
profiles are a store-backed :class:`TraceStreams`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .cache import LineStream
from .kernels import SetDistanceProfile
from .stackdist import DistanceProfile

#: The cache-size grid (bytes) used throughout the paper's figures.
PAPER_CACHE_SIZES = tuple(1024 * k for k in (1, 2, 4, 8, 16, 32, 64, 128, 256))

#: Line sizes studied in Figures 5.4/5.5 and Table 7.1.
PAPER_LINE_SIZES = (16, 32, 64, 128, 256)

#: Associativities studied in Figure 5.7 (None = fully associative).
PAPER_ASSOCIATIVITIES = (1, 2, 4, 8, 16, None)


@dataclass
class TraceStreams:
    """Per-line-size collapsed streams, distance profiles and per-set
    profiles for one byte-address trace, built lazily and memoized.

    ``kernel`` selects how profiles are computed; the per-stream
    previous-occurrence index is shared by the fully-associative
    profile and every per-set profile of the same line size, so an
    associativity grid pays for it once.
    """

    addresses: np.ndarray
    kernel: str = "vectorized"

    def __post_init__(self) -> None:
        kernels.check_kernel(self.kernel)
        self._streams = {}
        self._profiles = {}
        self._set_profiles = {}
        self._previous = {}

    def stream(self, line_size: int) -> LineStream:
        if line_size not in self._streams:
            self._streams[line_size] = LineStream.from_addresses(self.addresses, line_size)
        return self._streams[line_size]

    def previous(self, line_size: int) -> np.ndarray:
        """Previous-occurrence indices of the collapsed stream, shared
        by every profile pass at this line size."""
        if line_size not in self._previous:
            self._previous[line_size] = kernels.previous_occurrences(
                self.stream(line_size).run_lines)
        return self._previous[line_size]

    def profile(self, line_size: int) -> DistanceProfile:
        """The fully-associative profile: on the vectorized kernel the
        one-set :class:`SetDistanceProfile`, on the reference kernel
        the Fenwick-tree :class:`DistanceProfile`."""
        if line_size not in self._profiles:
            stream = self.stream(line_size)
            if self.kernel == "vectorized":
                built = SetDistanceProfile.from_stream(
                    stream, 1, prev=self.previous(line_size))
            else:
                built = DistanceProfile.from_stream(stream, kernel=self.kernel)
            self._profiles[line_size] = built
        return self._profiles[line_size]

    def set_profile(self, line_size: int, n_sets: int) -> SetDistanceProfile:
        """The per-set distance profile for ``(line_size, n_sets)``,
        serving every associativity that shares it.  One set is the
        fully-associative :meth:`profile`."""
        if n_sets == 1:
            return self.profile(line_size)
        key = (line_size, n_sets)
        if key not in self._set_profiles:
            self._set_profiles[key] = SetDistanceProfile.from_stream(
                self.stream(line_size), n_sets,
                prev=self.previous(line_size))
        return self._set_profiles[key]
