"""Trace persistence: the one on-disk encoding of a texel trace.

The paper's methodology separates trace *capture* from cache
*simulation* (Section 4.1: gldebug traces fed to the pipeline feeding
the cache simulator).  These helpers give the same workflow to library
users: render once, save the texel trace, and replay it against any
number of layouts and cache configurations later -- or on another
machine -- without re-rendering.  The artifact store writes every
trace part the same way.

Format: a zip of ``.npy`` members deflated at :data:`DEFLATE_LEVEL`,
one row per 2x2 filter quad.  The renderer emits every texel fetch as
part of an aligned quad (a trilinear fragment reads two): accesses
``4q .. 4q + 3`` share ``texture_id``, ``level``, ``kind`` and
``x``/``y``, have ``tu_raw = (i0, i0+1, i0, i0+1)``, ``tv_raw = (j0,
j0, j0+1, j0+1)``, ``tu = (a, b, a, b)`` and ``tv = (c, c, d, d)``.  A
row holds the shared values, ``i0``, ``j0``, ``(a, b)`` and ``(c,
d)``, in the trace's dtypes; ``meta`` holds ``(FORMAT_VERSION,
n_fragments, has_positions)``.
"""

from __future__ import annotations

import zipfile
import zlib

import numpy as np
from numpy.lib import format as npy_format

from .trace import TexelTrace

#: Bumped when the on-disk layout changes.  Every artifact fingerprint
#: carries it, so a bump re-keys the whole store.
FORMAT_VERSION = 2

#: zlib level of every trace archive.  Levels 1-3 share zlib's fast
#: strategy: 3 encodes as fast as 1 and is about a quarter smaller.
DEFLATE_LEVEL = 3

#: Columns with one value per quad.
_SHARED = ("texture_id", "level", "kind")
_POSITIONS = ("x", "y")


def _expand(rows: dict) -> dict:
    """The per-access columns of quad ``rows``: u pairs alternate over
    a quad's accesses, v pairs repeat."""
    columns = {name: np.repeat(rows[name], 4)
               for name in _SHARED + _POSITIONS if name in rows}
    i0, j0 = rows["i0"], rows["j0"]
    columns["tu_raw"] = np.tile(np.stack([i0, i0 + 1], 1), 2).reshape(-1)
    columns["tu"] = np.tile(rows["tu"], 2).reshape(-1)
    columns["tv_raw"] = np.repeat(np.stack([j0, j0 + 1], 1), 2, 1).reshape(-1)
    columns["tv"] = np.repeat(rows["tv"], 2, 1).reshape(-1)
    return columns


def save_trace(path, trace: TexelTrace) -> None:
    """Write ``trace`` to exactly ``path`` (conventionally
    ``*.trace.npz``).  Raises ``ValueError`` unless the trace is a
    sequence of aligned 2x2 filter quads (single-texel stochastic
    filtering is not, nor is a slice cut mid-quad)."""
    n = trace.n_accesses
    if n % 4:
        raise ValueError(f"{n} accesses do not split into 2x2 quads")

    def quads(name):
        return getattr(trace, name).reshape(n // 4, 4)

    rows = {name: quads(name)[:, 0] for name in
            _SHARED + (_POSITIONS if trace.has_positions else ())}
    rows.update(i0=quads("tu_raw")[:, 0], j0=quads("tv_raw")[:, 0],
                tu=quads("tu")[:, :2], tv=quads("tv")[:, ::2])
    for name, column in _expand(rows).items():
        if not np.array_equal(column, getattr(trace, name)):
            raise ValueError(
                f"trace column {name!r} breaks the 2x2 filter quads")
    rows["meta"] = np.array([FORMAT_VERSION, trace.n_fragments,
                             int(trace.has_positions)], dtype=np.int64)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED,
                         compresslevel=DEFLATE_LEVEL) as archive:
        for name, row in rows.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                npy_format.write_array(member, row, allow_pickle=False)


def load_columns(path) -> dict:
    """Decode a :func:`save_trace` file into the keyword arguments of
    :class:`TexelTrace`: its per-access columns and ``n_fragments``.
    Raises ``ValueError`` on a malformed file."""
    try:
        with zipfile.ZipFile(path) as archive:
            def read(name):
                with archive.open(name + ".npy") as member:
                    return npy_format.read_array(member)

            version, n_fragments, has_positions = \
                read("meta").reshape(-1).tolist()
            if version != FORMAT_VERSION:
                raise ValueError(
                    f"trace format version {version} unsupported "
                    f"(expected {FORMAT_VERSION})")
            rows = {name: read(name) for name in
                    _SHARED + ("i0", "j0", "tu", "tv")
                    + (_POSITIONS if has_positions else ())}
    except (KeyError, zipfile.BadZipFile, zlib.error) as error:
        raise ValueError(f"{path!r} is not a texel trace file") from error
    n_quads = rows["i0"].size
    for name, row in rows.items():
        if row.shape != ((n_quads, 2) if name in ("tu", "tv")
                         else (n_quads,)):
            raise ValueError(f"{path!r}: quad column {name!r} has shape "
                             f"{row.shape}, not {n_quads} rows")
    return {"x": None, "y": None, **_expand(rows),
            "n_fragments": int(n_fragments)}


def load_trace(path) -> TexelTrace:
    """Read a trace written by :func:`save_trace`."""
    return TexelTrace(**load_columns(path))
