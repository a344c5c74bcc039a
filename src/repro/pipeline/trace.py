"""Texel access traces.

"Whenever the software-based fragment generator accesses a texel from
memory, it also makes a call to the cache simulator passing the address
of the texel as a parameter" (paper Section 4.1).  We decouple the two:
the renderer records a *layout-independent* trace of
``(texture id, level, tu, tv)`` tuples in access order, and
:meth:`TexelTrace.byte_addresses` maps the same trace onto any memory
representation afterwards.  One render therefore serves every layout
and cache configuration studied against that scene and rasterization
order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..texture.filtering import KIND_BILINEAR, KIND_LOWER, KIND_UPPER, TexelAccesses
from ..texture.memory import AddressMapper


def count_fragments(kind: np.ndarray, start: int = 0,
                    stop: Optional[int] = None) -> int:
    """Fragments with at least one access in ``kind[start:stop)``.

    Every filter probe emits an aligned quad of four same-kind
    accesses -- a bilinear quad, or a lower quad followed by its upper
    quad -- so a frame's kind column is a sequence of 4-aligned quads
    and a fragment begins at every quad whose kind is not
    :data:`KIND_UPPER`.  The count is exact for traces built by the
    pipeline (quad-aligned from index 0) with isotropic filtering; an
    anisotropic fragment spans several probes, each of which counts
    once (an upper bound on fragments).
    """
    n = len(kind)
    if stop is None:
        stop = n
    start = max(0, min(int(start), n))
    stop = max(start, min(int(stop), n))
    if stop == start:
        return 0
    first_quad = start // 4
    last_quad = (stop - 1) // 4
    quad_kinds = kind[first_quad * 4:last_quad * 4 + 1:4]
    covered = int(np.count_nonzero(quad_kinds != KIND_UPPER))
    if quad_kinds[0] == KIND_UPPER:
        # The slice opens inside a trilinear fragment whose lower quad
        # precedes it; that fragment is covered too.
        covered += 1
    return covered


def fragment_starts(kind: np.ndarray) -> np.ndarray:
    """Access indices where a new fragment (or anisotropic probe)
    begins; see :func:`count_fragments` for the quad structure.  A
    trace that opens inside a trilinear fragment covers that fragment
    too, so a non-empty trace always starts one at index 0."""
    opens = kind[::4] != KIND_UPPER
    opens[:1] = True
    return np.flatnonzero(opens).astype(np.int64) * 4


#: The per-access columns of every trace and block, in field order,
#: with the dtype the renderer builds each in.  ``x``/``y`` (the owning
#: fragment's screen position) are ``None`` unless positions are
#: recorded.
COLUMNS = {"texture_id": np.int16, "level": np.int16, "tu": np.int32,
           "tv": np.int32, "tu_raw": np.int32, "tv_raw": np.int32,
           "kind": np.uint8, "x": np.int16, "y": np.int16}


@dataclass
class TexelTrace:
    """A frame's complete texel access stream, in access order.

    Columns share length ``n_accesses``.  ``tu_raw``/``tv_raw`` are the
    pre-wrap coordinates (texture repetition measurements);
    ``kind`` distinguishes trilinear lower/upper level and bilinear
    accesses (Section 3.1.2's locality metrics).
    """

    texture_id: np.ndarray
    level: np.ndarray
    tu: np.ndarray
    tv: np.ndarray
    tu_raw: np.ndarray
    tv_raw: np.ndarray
    kind: np.ndarray
    n_fragments: int = 0
    #: Optional per-access screen position of the owning fragment
    #: (recorded when the renderer is asked to; needed by the parallel
    #: fragment-generator study in :mod:`repro.core.parallel`).
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None

    @property
    def n_accesses(self) -> int:
        return len(self.texture_id)

    def byte_addresses(self, placements) -> np.ndarray:
        """Map the trace onto placed textures (one layout).

        ``placements`` is a list indexed by texture id (from
        :func:`repro.texture.memory.place_textures`).  Returns a flat
        ``int64`` byte-address stream; layouts requiring k accesses per
        texel (Williams) contribute k consecutive addresses.
        """
        if self.n_accesses == 0:
            return np.empty(0, dtype=np.int64)
        return AddressMapper(placements).map_trace(self).reshape(-1)

    @property
    def has_positions(self) -> bool:
        return self.x is not None

    def save(self, path: str) -> None:
        """Persist this trace (see :mod:`repro.pipeline.traceio`)."""
        from .traceio import save_trace
        save_trace(path, self)

    @classmethod
    def load(cls, path: str) -> "TexelTrace":
        """Load a trace written by :meth:`save`/:func:`save_trace`."""
        from .traceio import load_trace
        return load_trace(path)

    def columns(self, index) -> dict:
        """Every column indexed by ``index`` (a slice or a boolean
        mask), by field name; absent positions stay ``None``."""
        return {name: None if (column := getattr(self, name)) is None
                else column[index] for name in COLUMNS}

    def slice(self, start: int, stop: int) -> "TexelTrace":
        """A sub-trace of accesses ``[start, stop)``.

        ``n_fragments`` reports the fragments actually covered by the
        slice -- those with at least one access inside it -- recovered
        from the kind column's quad structure
        (:func:`count_fragments`), so slicing a frame into pieces
        yields per-piece counts that sum to the frame total whenever
        the cuts land on fragment boundaries.
        """
        return TexelTrace(n_fragments=count_fragments(self.kind, start, stop),
                          **self.columns(slice(start, stop)))

    def subset(self, mask: np.ndarray,
               n_fragments: Optional[int] = None) -> "TexelTrace":
        """The sub-trace selected by a boolean ``mask``, order
        preserved (used to split work among parallel generators)."""
        return TexelTrace(
            n_fragments=self.n_fragments if n_fragments is None else n_fragments,
            **self.columns(mask))


@dataclass
class FragmentBlock(TexelTrace):
    """One bounded chunk of a frame's access stream: the streaming
    pipeline's unit of flow.

    Same columns and semantics as :class:`TexelTrace`, plus a sequence
    ``index`` within the frame.  Blocks are cut at fragment
    boundaries, so ``n_fragments`` counts the fragments fully
    contained in the block, block counts sum to the frame total, and
    concatenating a frame's blocks in index order reproduces the
    in-RAM trace bit-identically (:func:`concat_blocks`).
    """

    index: int = 0


def concat_blocks(blocks) -> TexelTrace:
    """Concatenate an iterable of blocks (or traces) back into one
    in-RAM :class:`TexelTrace`; the inverse of block streaming."""
    blocks = list(blocks)
    if not blocks:
        return TraceBuilder().build()

    def joined(name):
        parts = [getattr(block, name) for block in blocks]
        if parts[0] is None:
            return None
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return TexelTrace(n_fragments=sum(block.n_fragments for block in blocks),
                      **{name: joined(name) for name in COLUMNS})


def cut_blocks(pieces, chunk_size: int):
    """Cut one access stream, handed over in ``(trace, starts)``
    pieces, into :class:`FragmentBlock` chunks of at most
    ``chunk_size`` accesses each.

    Every piece begins and ends on a fragment boundary, and ``starts``
    holds the sorted indices in the piece where a fragment begins
    (``starts[0] == 0``).  A block ends at the last fragment boundary
    within ``chunk_size`` accesses of its start, and exceeds the chunk
    only when a single fragment does; its ``n_fragments`` counts the
    fragments that begin in it.  So the cuts depend only on the joined
    stream, not on how it was split into pieces, and the cutter holds
    no more than one piece plus what is left of the last block.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    indices = itertools.count()
    rest = rest_starts = None  # the accesses not cut into a block yet
    for trace, starts in pieces:
        if trace.n_accesses == 0:
            continue
        if rest is not None:
            # Join the rest to the piece, and drop each part of it as
            # soon as it is joined: it views the last joined piece.
            offset = rest.n_accesses
            trace, rest = concat_blocks([rest, trace]), None
            starts, rest_starts = np.concatenate(
                [rest_starts, starts + offset]), None
        rest, rest_starts = yield from _cut(trace, starts, chunk_size,
                                            indices, final=False)
    if rest is not None:
        yield from _cut(rest, rest_starts, chunk_size, indices, final=True)


def _cut(trace, starts, chunk_size, indices, final):
    """Yield the blocks cut from the front of ``trace`` while a whole
    chunk is left (while any access is, when ``final``), numbered from
    ``indices``; return what is left as ``(trace, starts)``, or
    ``(None, None)``."""
    n = trace.n_accesses
    begin = first = 0  # the next block's first access and fragment
    while n - begin >= chunk_size or (final and begin < n):
        end = begin + chunk_size
        if end >= n:
            end = n
        else:
            # The last fragment boundary in (begin, end]; a single
            # fragment longer than the chunk runs to the next one.
            last = int(np.searchsorted(starts, end, side="right")) - 1
            if starts[last] > begin:
                end = int(starts[last])
            else:
                end = int(starts[last + 1]) if last + 1 < len(starts) else n
        stop = int(np.searchsorted(starts, end))
        yield FragmentBlock(index=next(indices), n_fragments=stop - first,
                            **trace.columns(slice(begin, end)))
        begin, first = end, stop
    if begin == n:
        return None, None
    return TexelTrace(**trace.columns(slice(begin, None))), \
        starts[first:] - begin


def iter_blocks(trace: TexelTrace, chunk_size: int):
    """Stream an in-RAM (or memory-mapped) trace as
    :class:`FragmentBlock` chunks of at most ``chunk_size`` accesses,
    cut at fragment boundaries (a block only exceeds ``chunk_size``
    when a single fragment does): :func:`cut_blocks` over the whole
    trace as one piece.
    """
    yield from cut_blocks([(trace, fragment_starts(trace.kind))],
                          chunk_size)


class TraceBuilder:
    """Accumulates access batches into one :class:`TexelTrace`."""

    def __init__(self, record_positions: bool = False) -> None:
        self.record_positions = record_positions
        self._pieces = []
        self.n_fragments = 0

    def append(self, texture_id, accesses: TexelAccesses, n_fragments: int,
               fragment_x: np.ndarray = None,
               fragment_y: np.ndarray = None) -> None:
        """Record the accesses of a run of fragments.

        ``texture_id`` is one id for every fragment (a triangle) or an
        array of per-*fragment* ids (the batched rasterizer's stream,
        which may interleave textures); ``fragment_x``/``fragment_y``
        are the per-fragment screen positions.  Each access inherits
        its owning fragment's id and position via
        ``accesses.fragment_index``.
        """
        n = accesses.n_accesses
        if n == 0:
            return
        owner = accesses.fragment_index
        if np.ndim(texture_id) == 0:
            texture = np.full(n, texture_id, dtype=np.int16)
        else:
            texture = np.asarray(texture_id).astype(np.int16)[owner]
        x = y = None
        if self.record_positions:
            if fragment_x is None or fragment_y is None:
                raise ValueError("record_positions builder needs fragment_x/y")
            x = fragment_x[owner].astype(np.int16)
            y = fragment_y[owner].astype(np.int16)
        self._pieces.append(TexelTrace(
            texture_id=texture, level=accesses.level, tu=accesses.tu,
            tv=accesses.tv, tu_raw=accesses.tu_raw, tv_raw=accesses.tv_raw,
            kind=accesses.kind, n_fragments=n_fragments, x=x, y=y))
        self.n_fragments += n_fragments

    def build(self) -> TexelTrace:
        if self._pieces:
            return concat_blocks(self._pieces)
        return TexelTrace(**{
            name: None if name in ("x", "y") and not self.record_positions
            else np.empty(0, dtype=dtype) for name, dtype in COLUMNS.items()})


__all__ = [
    "COLUMNS",
    "FragmentBlock",
    "TexelTrace",
    "TraceBuilder",
    "KIND_BILINEAR",
    "KIND_LOWER",
    "KIND_UPPER",
    "concat_blocks",
    "count_fragments",
    "cut_blocks",
    "fragment_starts",
    "iter_blocks",
]
