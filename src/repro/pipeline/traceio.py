"""Trace persistence.

The paper's methodology separates trace *capture* from cache
*simulation* (Section 4.1: gldebug traces fed to the pipeline feeding
the cache simulator).  These helpers give the same workflow to library
users: render once, save the texel trace, and replay it against any
number of layouts and cache configurations later -- or on another
machine -- without re-rendering.

Format: a single ``.npz`` (zipped numpy) archive holding the trace
columns plus a small metadata record.  Loading validates column
lengths, so truncated files fail loudly.
"""

from __future__ import annotations

import numpy as np

from .trace import TexelTrace

#: Bumped when the on-disk layout changes.
FORMAT_VERSION = 1

#: Minimum digits of a chunked-trace part index in its file name
#: (``<digest>.p00000.npz``; see :class:`~repro.engine.artifacts.
#: ChunkedRenderWriter`).
PART_DIGITS = 5


def save_trace(path: str, trace: TexelTrace, compress: bool = True) -> None:
    """Write ``trace`` to ``path`` (conventionally ``*.trace.npz``).

    ``compress=False`` writes a stored (deflate-free) npz: byte for
    byte larger on disk but an order of magnitude cheaper to encode.
    Streaming part files use it -- zlib dominated the cold streamed
    path, and parts are integrity-checked by their envelope's SHA-256
    rather than by the container.  :func:`load_trace` reads either
    encoding transparently.
    """
    columns = {
        "texture_id": trace.texture_id,
        "level": trace.level,
        "tu": trace.tu,
        "tv": trace.tv,
        "tu_raw": trace.tu_raw,
        "tv_raw": trace.tv_raw,
        "kind": trace.kind,
        "meta": np.array([FORMAT_VERSION, trace.n_fragments,
                          1 if trace.has_positions else 0], dtype=np.int64),
    }
    if trace.has_positions:
        columns["x"] = trace.x
        columns["y"] = trace.y
    (np.savez_compressed if compress else np.savez)(path, **columns)


def load_trace(path: str) -> TexelTrace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(path) as archive:
        try:
            meta = archive["meta"]
            columns = {name: archive[name] for name in
                       ("texture_id", "level", "tu", "tv",
                        "tu_raw", "tv_raw", "kind")}
        except KeyError as error:
            raise ValueError(f"{path!r} is not a texel trace file") from error
        version, n_fragments, has_positions = meta.tolist()
        if version != FORMAT_VERSION:
            raise ValueError(
                f"trace format version {version} unsupported "
                f"(expected {FORMAT_VERSION})")
        lengths = {len(column) for column in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"{path!r} has inconsistent column lengths")
        x = y = None
        if has_positions:
            x = archive["x"]
            y = archive["y"]
            if len(x) != len(columns["tu"]) or len(y) != len(columns["tu"]):
                raise ValueError(f"{path!r} has inconsistent position columns")
    return TexelTrace(n_fragments=int(n_fragments), x=x, y=y, **columns)
