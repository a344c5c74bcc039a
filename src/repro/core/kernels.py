"""Vectorized cache-simulation kernels.

The paper's studies are whole grids of cache configurations (size x
line size x associativity) over multi-million-access traces, and the
reference simulator (:class:`~repro.core.cache.LRUCache` and the
``_simulate_runs`` loop) pays a Python-level iteration per access per
configuration.  This module provides exact, batched replacements built
on two observations:

**Per-set decomposition.**  A set-associative LRU cache is ``n_sets``
*independent* fully-associative LRU caches, each seeing the
subsequence of line addresses that map to its set.  Partitioning the
collapsed run stream by set index (one stable argsort) and computing
LRU stack distances over the partitioned stream therefore yields --
in one pass -- the exact miss count for **every** associativity that
shares that ``(line_size, n_sets)`` pair:

    misses(ways) = cold + #{accesses with per-set distance > ways}.

**Offline stack distances.**  The per-access stack distance itself is
a 2-D dominance count.  With ``prev(i)`` the position of the previous
access to the same line (-1 for first touches),

    distance(i) = 1 + #{j in (prev(i), i) : prev(j) <= prev(i)}
                = F(i) - prev(i),   F(i) = #{j < i : prev(j) <= prev(i)},

because every j <= prev(i) satisfies ``prev(j) < j <= prev(i)``
trivially.  ``F`` is computed offline by top-down merge counting from
ONE stable argsort: each block of positions, kept sorted by ``prev``
value, is stably split into its two halves level by level, and the
number of left-half elements preceding each right-half element in the
merged order is exactly its dominance contribution -- cumsum and index
arithmetic only, no per-element Python anywhere (see
:func:`dominance_counts`).

Texture filters re-read the quads their neighbours just read, so most
reuse windows ``w(i) = i - prev(i)`` are a few accesses long.  Written
as ``distance(i) = w(i) - G(i)`` with ``G(i) = #{j < i : prev(j) >
prev(i)}`` (the reuse intervals nested in i's), the dominance count
only needs the *long* windows (see :func:`_warm_distances`):

* a short window (``w(i) <= _SHORT_WINDOW``) holds at most
  ``_SHORT_WINDOW - 2`` positions that can nest (``prev(i) + 1`` never
  does), so ``G(i)`` is that many shifted comparisons;
* a short ``j`` with ``prev(j) <= prev(i)`` ends before a long ``i``
  (``j <= prev(j) + _SHORT_WINDOW < i``), so the short intervals
  nested in a long one are two cumsums, and only the long
  subsequence, rank-compressed, goes through :func:`dominance_counts`.

On the paper scenes 59-86% of the windows are short; a stream with
no such locality (uniform random lines) pays up to about 16% more
than one dominance count over everything.

The same ``F - prev`` identity survives concatenating the per-set
subsequences: every position in an earlier set's block trivially
satisfies the dominance condition, and each line address maps to
exactly one set, so one global pass computes all per-set distances.
The set partitions nest, too: residue(S') for a multiple S' of S is
the stable split of residue(S) by the set bits S lacks, re-collapsed,
so a line size's set counts are built from one another rather than
each from the whole stream (see :func:`_set_residues`).

The kernels are exact (bit-identical miss / cold / capacity / conflict
counts versus the reference); :mod:`repro.core.cache` keeps the
sequential implementation selectable via ``kernel="reference"`` and
for the FIFO/random replacement policies, which have no stack-distance
characterization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import CacheConfig, CacheStats, LineStream, collapse_consecutive
from .stackdist import DistanceProfile

#: Distance value recorded for cold (first-touch) accesses; mirrors
#: :data:`repro.core.stackdist.COLD`.
COLD = -1

#: Kernel selector values accepted throughout the simulator.
KERNELS = ("reference", "vectorized")


def check_kernel(kernel: str) -> str:
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


def _argsort_bounded(keys: np.ndarray, upper: int) -> np.ndarray:
    """Stable argsort of non-negative ``keys`` known to be ``< upper``.

    NumPy's stable sort is a (fast) radix sort only for <= 16-bit
    integer dtypes, so narrow keys sort directly and wider bounded
    keys sort as two chained 16-bit radix passes (low then high half),
    several times faster than the int64 mergesort either way.
    """
    if upper <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if upper <= 1 << 32:
        lo = (keys & 0xFFFF).astype(np.uint16)
        first = np.argsort(lo, kind="stable")
        hi = (keys >> 16).astype(np.uint16)
        second = np.argsort(hi[first], kind="stable")
        return first[second]
    return np.argsort(keys, kind="stable")


def previous_occurrences(lines: np.ndarray) -> np.ndarray:
    """``prev[i]`` = index of the previous access to ``lines[i]``, or
    -1 for a first touch.  One stable argsort; no Python loop."""
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = _argsort_bounded(lines, int(lines.max()) + 1)
    ordered = lines[order]
    same = ordered[1:] == ordered[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


#: Pairs closer than this many position bits are resolved by one
#: batched all-pairs comparison instead of per-level partitioning.
#: Wider blocks win single-threaded (fewer partition levels) but the
#: ``n * 2**bits`` bytes of boolean temporaries lose under concurrent
#: folds on bandwidth-bound hosts, so the width stays at 32.
_BOTTOM_BITS = 5
_POS_MASK = (1 << 32) - 1


def dominance_counts(prev: np.ndarray) -> np.ndarray:
    """``F[i] = #{j < i : prev[j] <= prev[i]}`` for every position.

    Top-down merge counting driven by ONE stable argsort.  Start from
    the fully value-sorted permutation and, level by level, stably
    split each block of ``2**(t+1)`` positions into its two
    ``2**t``-position halves (pure cumsum arithmetic -- no further
    sorting).  Before each split, the block *is* the stable merge of
    its halves, so for every right-half element the number of
    left-half elements preceding it in the block equals
    ``#{left j : prev[j] <= prev[i]}`` exactly (left positions all
    precede right positions, so stability breaks value ties the right
    way).  Each (j, i) pair is counted at exactly one level -- the
    highest differing bit of j and i.

    Constant-factor engineering: positions are a permutation of
    ``[0, n)``, so every block is a fixed ``2**(t+1)``-wide position
    range and block starts/offsets are index arithmetic (no bincount,
    no gathers); each element packs ``accumulated_count << 32 |
    position`` into one int64 so the per-level count update is
    branch-free arithmetic and the only random memory access per level
    is the partition scatter itself; the last ``_BOTTOM_BITS`` levels
    (pairs within 32-position blocks, by then contiguous and
    value-sorted) collapse into a single batched 32x32 triangular
    comparison.  Requires ``n < 2**31``.
    """
    prev = np.asarray(prev, dtype=np.int64)
    n = len(prev)
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    if n >= 1 << 31:
        raise ValueError("dominance_counts supports up to 2**31-1 accesses")
    # P packs (accumulated count << 32) | position, value-sorted.
    P = _argsort_bounded(prev + 1, n + 1).astype(np.int64, copy=False)
    ks = np.arange(n, dtype=np.int64)
    buffer = np.empty_like(P)
    bottom = 1 << _BOTTOM_BITS
    level = (n - 1).bit_length() - 1
    while level >= _BOTTOM_BITS:
        half = 1 << level
        width = half << 1
        bit = (P >> level) & 1          # 1 = right half of its block
        # Stable rank among left-half elements, rebased per block: one
        # cumsum, everything else index arithmetic.
        left_rank = ks - np.cumsum(bit) + bit
        left_rank -= np.repeat(left_rank[::width], width)[:n]
        P += (bit * left_rank) << 32    # lefts dominating each right
        # Lefts keep their rank at the block start; rights go after the
        # block's ``half`` lefts.  (A block too short to hold ``half``
        # lefts holds no rights at all, so the scalar is always right.)
        slot = (ks & -width) + left_rank
        right_slot = ks + half
        right_slot -= left_rank
        slot += (right_slot - slot) * bit
        buffer[slot] = P
        P, buffer = buffer, P
        level -= 1
    # Bottom levels in one shot: every remaining pair lives inside a
    # 32-position block, contiguous and value-sorted, so stable array
    # order encodes ``prev[j] <= prev[i]`` and a strict position
    # comparison over the lower triangle counts exactly the pairs not
    # yet counted above.  Padding positions sort after every real one.
    padded = -(-n // bottom) * bottom
    if padded != n:
        P = np.concatenate([P, np.arange(n, padded, dtype=np.int64)])
    pos = (P & _POS_MASK).astype(np.int32).reshape(-1, bottom)
    within = (pos[:, None, :] < pos[:, :, None])
    within &= np.tri(bottom, k=-1, dtype=bool)
    within = within.sum(axis=2, dtype=np.int64).ravel()[:n]
    counts[P[:n] & _POS_MASK] = (P[:n] >> 32) + within
    return counts


#: Reuse windows ``i - prev[i]`` up to this long have their nested
#: intervals counted by shifted comparisons, outside the dominance
#: count.  Measured, not tuned per workload: histograms of the paper
#: grid's residues took 1.3-1.6 s at 4, 0.9-1.2 s at 8 and no less at
#: 12 or 16, where each step adds a comparison pass.
_SHORT_WINDOW = 8


def _warm_distances(prev: np.ndarray) -> np.ndarray:
    """``dominance_counts(prev) - prev`` at every warm position (the
    stack distance there); values at cold positions are unspecified.

    ``distance(i) = w(i) - G(i)`` as the module docstring derives it.
    Positions before ``prev(i) + 2`` compare false by themselves, so
    the shifted comparisons need no window mask.  Cold ``j`` never
    nest in a warm ``i``.  In a long window the short ``j`` nested are
    ``#{short j < i} - #{short j : prev(j) <= prev(i)}`` and the long
    ones come from the dominance count over the long subsequence, its
    distinct ``prev`` values rank-compressed by a cumsum.
    """
    prev = np.asarray(prev, dtype=np.int64)
    n = len(prev)
    window = np.arange(n, dtype=np.int64) - prev
    reach = _SHORT_WINDOW - 2
    padded = np.concatenate([np.full(reach, -1, dtype=np.int64), prev])
    nested = np.zeros(n, dtype=np.int64)
    for shift in range(1, reach + 1):
        nested += padded[reach - shift:reach - shift + n] > prev
    warm = prev >= 0
    short = warm & (window <= _SHORT_WINDOW)
    long_idx = np.flatnonzero(warm & ~short)
    if len(long_idx):
        long_prev = prev[long_idx]
        marks = np.zeros(n, dtype=np.int64)
        marks[prev[short]] = 1
        short_nested = (np.cumsum(short)[long_idx] - short[long_idx]
                        - np.cumsum(marks)[long_prev])
        marks[:] = 0
        marks[long_prev] = 1
        ranks = np.cumsum(marks)[long_prev] - 1
        nested[long_idx] = (short_nested
                            + np.arange(len(long_idx), dtype=np.int64)
                            - dominance_counts(ranks))
    return window - nested


def stack_distances(run_lines: np.ndarray) -> np.ndarray:
    """Vectorized per-access LRU stack distances (:data:`COLD` for
    first touches); exact drop-in for the Fenwick reference
    :func:`repro.core.stackdist.stack_distances`."""
    run_lines = np.asarray(run_lines, dtype=np.int64)
    prev = previous_occurrences(run_lines)
    return np.where(prev < 0, np.int64(COLD), _warm_distances(prev))


def set_partition(run_lines: np.ndarray, n_sets: int) -> np.ndarray:
    """The run stream reordered into per-set subsequences (stable, so
    each subsequence preserves access order).  ``n_sets == 1`` returns
    the stream unchanged."""
    run_lines = np.asarray(run_lines, dtype=np.int64)
    if n_sets <= 1:
        return run_lines
    # Line addresses are non-negative, so % matches the reference
    # cache's mask/modulo set indexing exactly.
    order = _argsort_bounded(run_lines % n_sets, n_sets)
    return run_lines[order]


def _partition_order(run_lines: np.ndarray, n_sets: int) -> np.ndarray:
    """Stable permutation grouping the stream into per-set blocks."""
    return _argsort_bounded(run_lines % n_sets, n_sets)


def _split_residue(residue: np.ndarray, prev: np.ndarray, n_sets: int,
                   factor: int) -> tuple:
    """``(residue, prev, order, keep)`` for ``n_sets * factor`` sets,
    from the residue of ``n_sets`` sets and its previous occurrences.

    A *residue* is the run stream stably partitioned into per-set
    blocks with each block's consecutive repeats collapsed.  Each
    ``n_sets`` block splits, stably, into ``factor`` finer sets by
    ``line // n_sets % factor``; sorting the whole residue by that key
    leaves the blocks in ``line % (n_sets * factor)`` order, and
    collapsing the split gives the finer residue (a repeat collapsed
    in the coarse block is still adjacent in the finer one).  ``prev``
    relocates instead of being recomputed: a line's occurrences share
    one set and keep their order, so each finer previous occurrence is
    the coarse one's collapsed run head.  ``order`` (the stable split)
    and ``keep`` (the collapse) map the finer residue back onto the
    input's positions.
    """
    order = _argsort_bounded(residue // n_sets % factor, factor)
    split = residue[order]
    keep = np.empty(len(split), dtype=bool)
    keep[:1] = True
    np.not_equal(split[1:], split[:-1], out=keep[1:])
    head = np.empty(len(split), dtype=np.int64)
    head[order] = np.cumsum(keep) - 1
    moved = prev[order[keep]]
    warm = moved >= 0
    moved[warm] = head[moved[warm]]
    return split[keep], moved, order, keep


def _set_residues(run_lines: np.ndarray, prev: np.ndarray,
                  set_counts) -> dict:
    """``{n_sets: (residue, prev)}`` for every count in ``set_counts``,
    the counts built in ascending order, each from the largest count
    already built that divides it (the run stream itself is the
    one-set residue, and 1 divides everything)."""
    residues = {1: (run_lines, prev)}
    for n_sets in sorted(set(set_counts)):
        if n_sets not in residues:
            parent = max(built for built in residues if n_sets % built == 0)
            residues[n_sets] = _split_residue(
                *residues[parent], parent, n_sets // parent)[:2]
    return {n_sets: residues[n_sets] for n_sets in set_counts}


def _fold_mru_hits(counts: np.ndarray, mru_hits: int) -> np.ndarray:
    """A residue's histogram with the ``mru_hits`` accesses its
    collapse removed folded back in at distance 1."""
    if mru_hits:
        if len(counts) < 2:
            counts = np.zeros(2, dtype=np.int64)
        counts[1] += mru_hits
    return counts


def set_distance_histogram(run_lines: np.ndarray, n_sets: int,
                           prev: np.ndarray = None) -> tuple:
    """``(counts, cold)`` for the per-set stack distances of a
    collapsed run stream: ``counts[d]`` is the number of accesses at
    per-set distance ``d`` (aggregated over sets), ``cold`` the number
    of first touches.  Lines never span sets, so one concatenated pass
    over the set-partitioned stream computes every set's distances.

    MRU short-circuit: an access whose set-partitioned predecessor is
    the same line sits at the top of its set's LRU stack -- per-set
    distance exactly 1 -- and re-touching the MRU line leaves the
    stack untouched, so collapsing those runs *before* counting
    changes no other access's distance.  The collapsed residue (see
    :func:`_split_residue`) never holds adjacent equal lines, so its
    warm distances are all >= 2 and folding the collapsed hits back
    in at distance 1 reproduces the full histogram exactly.  With
    ``n_sets > 1`` this is the one-level case of the nested residues
    :meth:`PartialSetProfile.from_runs` builds per line size.

    ``prev`` optionally supplies :func:`previous_occurrences` of the
    *unpartitioned* stream so grid sweeps (many ``n_sets``, one
    stream) pay for that argsort once.
    """
    run_lines = np.asarray(run_lines, dtype=np.int64)
    if prev is None:
        prev = previous_occurrences(run_lines)
    if n_sets > 1:
        residue, residue_prev, _, _ = _split_residue(run_lines, prev, 1,
                                                     n_sets)
        counts, cold = set_distance_histogram(residue, 1, prev=residue_prev)
        return _fold_mru_hits(counts, len(run_lines) - len(residue)), cold
    warm = prev >= 0
    distances = _warm_distances(prev)[warm]
    if len(distances):
        counts = np.bincount(distances, minlength=2)
    else:
        counts = np.zeros(1, dtype=np.int64)
    return counts.astype(np.int64, copy=False), len(run_lines) - len(distances)


def per_set_distances(run_lines: np.ndarray, n_sets: int,
                      prev: np.ndarray = None) -> tuple:
    """``(distances, cold)`` per access of a collapsed run stream, in
    stream order: ``distances[i]`` is the access's LRU stack distance
    *within its set* and ``cold[i]`` marks first touches (where the
    distance value is meaningless).

    Unlike :func:`set_distance_histogram` this keeps the per-access
    verdicts instead of aggregating, which is what the hierarchy,
    victim and prefetch simulators need.  ``prev`` optionally supplies
    :func:`previous_occurrences` of the unpartitioned stream so callers
    sharing one stream pay for that argsort once.
    """
    run_lines = np.asarray(run_lines, dtype=np.int64)
    if prev is None:
        prev = previous_occurrences(run_lines)
    cold = prev < 0
    if n_sets <= 1:
        return _warm_distances(prev), cold
    # MRU short-circuit (see set_distance_histogram): the collapsed
    # repeats are distance-1 hits, and first touches always survive
    # the collapse, so the ``cold`` mask is untouched.
    _, residue_prev, order, keep = _split_residue(run_lines, prev, 1, n_sets)
    part = np.ones(len(run_lines), dtype=np.int64)
    part[keep] = _warm_distances(residue_prev)
    distances = np.empty(len(run_lines), dtype=np.int64)
    distances[order] = part
    return distances, cold


def _shallow_outcomes(run_lines: np.ndarray, n_sets: int,
                      ways: int) -> np.ndarray:
    """Per-access miss verdicts for ``ways <= 2``, without dominance
    counting.

    Partition the stream by set and drop consecutive same-set
    duplicates: the dropped positions are exactly the distance-1 hits,
    and in the remaining (adjacent-distinct) subsequence a warm access
    at distance 2 is exactly one whose line reappears two slots after
    its previous occurrence -- any farther, and the window between the
    two occurrences holds two adjacent-distinct accesses to lines other
    than it, i.e. at least two distinct lines, pushing the distance
    past 2.  So the whole verdict is two shifted comparisons, O(n)
    instead of the O(n log n) merge count.  Line equality implies set
    equality (each line maps to one set), so no set-id comparisons are
    needed.
    """
    n = len(run_lines)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = None
    grouped = run_lines
    if n_sets > 1:
        order = _partition_order(run_lines, n_sets)
        grouped = run_lines[order]
    dup = np.zeros(n, dtype=bool)
    np.equal(grouped[1:], grouped[:-1], out=dup[1:])
    kept = np.flatnonzero(~dup)
    collapsed = grouped[kept]
    miss_part = np.empty(n, dtype=bool)
    miss_part[dup] = False
    miss_collapsed = np.ones(len(collapsed), dtype=bool)
    if ways == 2 and len(collapsed) > 2:
        np.not_equal(collapsed[2:], collapsed[:-2], out=miss_collapsed[2:])
    miss_part[kept] = miss_collapsed
    if order is None:
        return miss_part
    miss = np.empty(n, dtype=bool)
    miss[order] = miss_part
    return miss


def run_outcomes(run_lines: np.ndarray, config: CacheConfig,
                 prev: np.ndarray = None) -> tuple:
    """``(miss, cold)`` boolean masks per access of a collapsed run
    stream through a set-associative LRU cache.

    Exactness: a set-associative LRU cache is ``n_sets`` independent
    fully-associative LRU stacks, and an access hits iff its set's
    stack holds the line -- i.e. iff fewer than ``ways`` distinct lines
    of the same set were touched since its previous access.  That count
    is exactly the set-relative stack distance, so

        miss  <=>  cold  or  set-relative distance > ways,

    matching the sequential :class:`~repro.core.cache.LRUCache` verdict
    per access, not just in aggregate.  Direct-mapped and two-way
    configurations (the paper's main design points) resolve the
    threshold by adjacency (:func:`_shallow_outcomes`); deeper
    associativities take the full per-set distance computation.
    """
    run_lines = np.asarray(run_lines, dtype=np.int64)
    if prev is None:
        prev = previous_occurrences(run_lines)
    cold = prev < 0
    if config.ways <= 2:
        return _shallow_outcomes(run_lines, config.n_sets, config.ways), cold
    distances, _ = per_set_distances(run_lines, config.n_sets, prev=prev)
    return cold | (distances > config.ways), cold


def line_miss_mask(lines: np.ndarray, config: CacheConfig) -> np.ndarray:
    """Per-access hit/miss verdicts for an *uncollapsed* line-address
    stream (True = miss).  Consecutive duplicates are guaranteed LRU
    hits, so outcomes are computed on the collapsed runs and scattered
    back; positions between run heads stay False."""
    lines = np.asarray(lines, dtype=np.int64).ravel()
    outcomes = np.zeros(len(lines), dtype=bool)
    if len(lines) == 0:
        return outcomes
    keep = np.empty(len(lines), dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    miss, _ = run_outcomes(lines[keep], config)
    outcomes[keep] = miss
    return outcomes


def miss_mask(addresses: np.ndarray, config: CacheConfig) -> np.ndarray:
    """Per-access hit/miss verdicts for a byte-address stream through
    ``config`` (True = miss); exact drop-in for recording
    :meth:`LRUCache.access` returns along the trace."""
    shift = int(config.line_size).bit_length() - 1
    lines = np.asarray(addresses, dtype=np.int64).ravel() >> shift
    return line_miss_mask(lines, config)


def miss_stream(addresses: np.ndarray, config: CacheConfig) -> np.ndarray:
    """The exact line-address sequence ``config`` fetches from the next
    level down (its misses, in access order) for a byte-address
    stream."""
    shift = int(config.line_size).bit_length() - 1
    lines = np.asarray(addresses, dtype=np.int64).ravel() >> shift
    if len(lines) == 0:
        return lines
    keep = np.empty(len(lines), dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    run_lines = lines[keep]
    miss, _ = run_outcomes(run_lines, config)
    return run_lines[miss]


@dataclass
class SetDistanceProfile(DistanceProfile):
    """Per-set stack-distance summary of one trace, keyed by
    ``(line_size, n_sets)``.

    One profile yields the exact miss count of **every** LRU cache
    organization sharing its line size and set count -- associativity
    ``w`` means capacity ``n_sets * w * line_size`` -- via the inherited
    :meth:`~repro.core.stackdist.DistanceProfile.misses_at` with
    ``capacity_lines = w`` (lines per set).  With ``n_sets == 1`` it
    *is* the fully-associative profile.
    """

    line_size: int
    n_sets: int

    @classmethod
    def from_stream(cls, stream: LineStream, n_sets: int,
                    prev: np.ndarray = None) -> "SetDistanceProfile":
        counts, cold = set_distance_histogram(stream.run_lines, n_sets,
                                              prev=prev)
        return cls(line_size=stream.line_size, n_sets=n_sets, counts=counts,
                   cold=cold, duplicate_hits=stream.duplicate_hits)

    @classmethod
    def from_blocks(cls, blocks, line_size: int,
                    n_sets: int) -> "SetDistanceProfile":
        """Fold :meth:`from_stream` over an iterable of *raw*
        (uncollapsed) line-address blocks.

        Exactly equal -- same counts, cold and duplicate-hit fields --
        to :meth:`from_stream` over the concatenated stream, for any
        partition of the stream into blocks, while holding only one
        block plus :class:`PartialSetProfile` state (bounded by the
        number of distinct lines, not the trace length) in memory.
        """
        state = PartialSetProfile.empty(line_size, n_sets)
        for block in blocks:
            state = state.merge(PartialSetProfile.from_lines(
                block, line_size, n_sets))
        return state.finalize()

    def stats_pair(self, config: CacheConfig) -> tuple:
        """``(misses, cold_misses)`` for ``config``, which must share
        this profile's line size and set count."""
        if config.line_size != self.line_size:
            raise ValueError(
                f"config line size {config.line_size} != profile {self.line_size}")
        if config.n_sets != self.n_sets:
            raise ValueError(
                f"config has {config.n_sets} sets, profile {self.n_sets}")
        return self.misses_at(config.ways), self.cold

    def stats_for(self, config: CacheConfig) -> CacheStats:
        """The :class:`CacheStats` this profile implies for ``config``
        (which must share this profile's line size and set count)."""
        misses, cold = self.stats_pair(config)
        return CacheStats(
            config=config,
            accesses=self.total_accesses,
            misses=misses,
            cold_misses=cold,
        )


def _set_offsets(set_ids: np.ndarray, n_sets: int) -> np.ndarray:
    """Group bounds of a set-grouped array: set ``s`` occupies
    ``[offsets[s], offsets[s+1])``."""
    offsets = np.zeros(n_sets + 1, dtype=np.int64)
    np.cumsum(np.bincount(set_ids, minlength=n_sets), out=offsets[1:])
    return offsets


def _grouped_rank(offsets: np.ndarray, n: int) -> np.ndarray:
    """0-based within-group rank of each element of a grouped array."""
    return (np.arange(n, dtype=np.int64)
            - np.repeat(offsets[:-1], np.diff(offsets)))


def _member_positions(sorted_values: np.ndarray, queries: np.ndarray) -> tuple:
    """``(found, pos)``: membership of ``queries`` in the sorted,
    duplicate-free ``sorted_values``, with ``pos`` the match index
    (meaningful only where ``found``)."""
    if len(sorted_values) == 0 or len(queries) == 0:
        return (np.zeros(len(queries), dtype=bool),
                np.zeros(len(queries), dtype=np.int64))
    pos = np.searchsorted(sorted_values, queries)
    np.minimum(pos, len(sorted_values) - 1, out=pos)
    return sorted_values[pos] == queries, pos


@dataclass
class PartialSetProfile:
    """Resumable per-block stack-distance state for one
    ``(line_size, n_sets)`` pair -- the unit the streaming pipeline
    folds over :class:`~repro.pipeline.trace.FragmentBlock` chunks.

    The state of a stream segment is everything a *later* segment can
    observe about it plus everything an *earlier* segment could still
    change about it:

    * ``counts`` -- histogram of distances already closed inside the
      segment (an access whose previous same-line touch is also in the
      segment; its distance window is sealed and no merge can move it);
    * ``open_lines`` -- the segment's first touches, per set in
      first-touch order.  Their distances depend on what precedes the
      segment, so they stay symbolic until a left merge resolves them
      (or :meth:`finalize` declares them cold);
    * ``stack_lines`` -- the segment's distinct lines per set in
      MRU-first (last-occurrence) order: the exact LRU stack a later
      segment's opens land on;
    * ``first_line`` / ``last_line`` -- raw boundary addresses, so a
      merge can credit a boundary duplicate as the collapsed stream
      would.

    :meth:`merge` is exact -- ``a.merge(b)`` equals
    ``from_lines(concat(a_lines, b_lines))`` field for field -- which
    makes it associative, so any block partition of a stream (and any
    merge tree over the per-shard partials) finalizes to the identical
    :class:`SetDistanceProfile`.

    The resolution formula: for segment ``b``'s ``k``-th open of a set
    (1-based first-touch order) found at depth ``d`` (1 = MRU) in
    segment ``a``'s ending stack, the distinct lines touched between
    the two occurrences are ``b``'s ``k - 1`` earlier opens of the set
    unioned with the ``d - 1`` lines above it in ``a``'s stack, so

        distance = k + d - 1 - #{earlier opens resident above it},

    and the correction term is a per-set dominance count over
    (first-touch order, depth) pairs -- the same merge-counting kernel
    the in-RAM path uses.
    """

    line_size: int
    n_sets: int
    counts: np.ndarray
    duplicate_hits: int
    total_accesses: int
    stack_lines: np.ndarray
    open_lines: np.ndarray
    offsets: np.ndarray
    first_line: int
    last_line: int

    @classmethod
    def empty(cls, line_size: int, n_sets: int) -> "PartialSetProfile":
        """The merge identity (profile of the empty stream)."""
        if n_sets < 1:
            raise ValueError("n_sets must be at least 1")
        return cls(line_size=line_size, n_sets=n_sets,
                   counts=np.zeros(1, dtype=np.int64), duplicate_hits=0,
                   total_accesses=0,
                   stack_lines=np.empty(0, dtype=np.int64),
                   open_lines=np.empty(0, dtype=np.int64),
                   offsets=np.zeros(n_sets + 1, dtype=np.int64),
                   first_line=-1, last_line=-1)

    @classmethod
    def from_lines(cls, lines: np.ndarray, line_size: int,
                   n_sets: int) -> "PartialSetProfile":
        """State of one raw (uncollapsed) line-address block."""
        lines = np.asarray(lines, dtype=np.int64).ravel()
        if len(lines) == 0:
            return cls.empty(line_size, n_sets)
        run_lines, duplicate_hits = collapse_consecutive(lines)
        return cls.from_runs(run_lines, previous_occurrences(run_lines),
                             duplicate_hits, len(lines), line_size,
                             (n_sets,))[n_sets]

    @classmethod
    def from_runs(cls, run_lines: np.ndarray, prev: np.ndarray,
                  duplicate_hits: int, total_accesses: int,
                  line_size: int, set_counts) -> dict:
        """``{n_sets: state}`` of one collapsed run stream, given its
        :func:`previous_occurrences`, for every count in
        ``set_counts`` (:func:`from_lines` is the one-count form).

        The collapse and the prev argsort depend only on the line size,
        and so do the block's first and last touches: those are
        computed once, and only the small per-line arrays are sorted
        by set per count.  Each count's histogram reads its nested
        residue (:func:`_set_residues`: every count split from the
        largest one built that divides it, so counts that do not nest,
        such as 24 beside 32, still start from the one-set stream) as
        one stream, plus the repeats its collapse removed.
        """
        if any(n_sets < 1 for n_sets in set_counts):
            raise ValueError("n_sets must be at least 1")
        if len(run_lines) == 0:
            return {n_sets: cls.empty(line_size, n_sets)
                    for n_sets in set_counts}
        open_lines = run_lines[prev < 0]
        last = np.ones(len(run_lines), dtype=bool)
        last[prev[prev >= 0]] = False
        last_lines = run_lines[last][::-1]  # MRU first
        states = {}
        residues = _set_residues(run_lines, prev, set_counts)
        for n_sets, (residue, residue_prev) in residues.items():
            counts, _ = set_distance_histogram(residue, 1, prev=residue_prev)
            open_sets = open_lines % n_sets
            states[n_sets] = cls(
                line_size=line_size, n_sets=n_sets,
                counts=_fold_mru_hits(counts, len(run_lines) - len(residue)),
                duplicate_hits=duplicate_hits,
                total_accesses=total_accesses,
                stack_lines=last_lines[_argsort_bounded(last_lines % n_sets,
                                                        n_sets)],
                open_lines=open_lines[_argsort_bounded(open_sets, n_sets)],
                offsets=_set_offsets(open_sets, n_sets),
                first_line=int(run_lines[0]),
                last_line=int(run_lines[-1]))
        return states

    def merge(self, other: "PartialSetProfile") -> "PartialSetProfile":
        """State of ``self``'s stream followed by ``other``'s."""
        a, b = self, other
        if a.line_size != b.line_size or a.n_sets != b.n_sets:
            raise ValueError(
                f"cannot merge ({a.line_size}B, {a.n_sets} sets) with "
                f"({b.line_size}B, {b.n_sets} sets)")
        if a.total_accesses == 0:
            return b
        if b.total_accesses == 0:
            return a
        n_sets = a.n_sets

        # Resolve b's opens against a's ending stack.  Lines never
        # span sets, so one global sorted lookup serves every set.
        sort_a = np.argsort(a.stack_lines)
        found, pos = _member_positions(a.stack_lines[sort_a], b.open_lines)
        hit_idx = np.flatnonzero(found)
        a_rank = _grouped_rank(a.offsets, len(a.stack_lines))
        depth = a_rank[sort_a[pos[hit_idx]]] + 1       # 1 = MRU
        k = _grouped_rank(b.offsets, len(b.open_lines))[hit_idx] + 1

        if len(hit_idx):
            # Overlap correction: per set, count earlier resolved opens
            # sitting strictly above this line in a's stack.  Rank-
            # compress (set, depth) keys -- distinct within a set -- and
            # reuse the dominance kernel; earlier sets always dominate,
            # so subtracting each group's start rebases the count per
            # set (the concatenation argument of the module docstring).
            m = len(hit_idx)
            if n_sets > 1:
                hit_sets = b.open_lines[hit_idx] % n_sets  # ascending
            else:
                hit_sets = np.zeros(m, dtype=np.int64)
            change = np.empty(m, dtype=bool)
            change[0] = True
            np.not_equal(hit_sets[1:], hit_sets[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            base = np.repeat(starts, np.diff(np.append(starts, m)))
            comp = np.empty(m, dtype=np.int64)
            comp[np.lexsort((depth, hit_sets))] = np.arange(m, dtype=np.int64)
            overlap = dominance_counts(comp) - base
            resolved = np.bincount(k + depth - 1 - overlap)
        else:
            resolved = np.zeros(1, dtype=np.int64)

        duplicate_hits = a.duplicate_hits + b.duplicate_hits
        if b.first_line == a.last_line:
            # The concatenated stream collapses b's leading access into
            # a's final run.  That access is b's first open of its set
            # (k == 1) landing on a's MRU (d == 1), so it resolved to
            # distance 1 above; re-credit it as the collapsed hit it
            # is.  Dropping an MRU repeat perturbs no other window, so
            # every remaining count already matches the collapsed
            # stream.
            resolved[1] -= 1
            duplicate_hits += 1

        length = max(len(a.counts), len(b.counts), len(resolved))
        counts = np.zeros(length, dtype=np.int64)
        counts[:len(a.counts)] += a.counts
        counts[:len(b.counts)] += b.counts
        counts[:len(resolved)] += resolved
        # Keep the histogram canonical (no trailing zeros; the
        # boundary correction can zero the last bin) so merged states
        # compare equal to from_lines states regardless of merge order.
        nonzero = np.flatnonzero(counts)
        counts = counts[:int(nonzero[-1]) + 1] if len(nonzero) \
            else np.zeros(1, dtype=np.int64)

        # Merged stack: b's stack over a's survivors (lines b did not
        # re-touch), per set.  A composite (set, source) key with one
        # stable bounded sort interleaves the groups while preserving
        # each source's internal order.
        b_touched = np.sort(b.stack_lines)
        retouched, _ = _member_positions(b_touched, a.stack_lines)
        survivors = a.stack_lines[~retouched]
        stack_cat = np.concatenate([b.stack_lines, survivors])
        open_cat = np.concatenate([a.open_lines, b.open_lines[~found]])

        def interleave(cat, n_first):
            if n_sets > 1:
                sets_cat = cat % n_sets
            else:
                sets_cat = np.zeros(len(cat), dtype=np.int64)
            source = np.ones(len(cat), dtype=np.int64)
            source[:n_first] = 0
            order = _argsort_bounded(sets_cat * 2 + source, 2 * n_sets)
            return cat[order], sets_cat

        stack_lines, stack_sets = interleave(stack_cat, len(b.stack_lines))
        open_lines, _ = interleave(open_cat, len(a.open_lines))
        return PartialSetProfile(
            line_size=a.line_size, n_sets=n_sets, counts=counts,
            duplicate_hits=duplicate_hits,
            total_accesses=a.total_accesses + b.total_accesses,
            stack_lines=stack_lines, open_lines=open_lines,
            offsets=_set_offsets(stack_sets, n_sets),
            first_line=a.first_line, last_line=b.last_line)

    def finalize(self) -> SetDistanceProfile:
        """Close the fold: unresolved opens are the cold misses."""
        nonzero = np.flatnonzero(self.counts)
        if len(nonzero):
            counts = self.counts[:int(nonzero[-1]) + 1]
        else:
            counts = np.zeros(1, dtype=np.int64)
        return SetDistanceProfile(
            line_size=self.line_size, n_sets=self.n_sets,
            counts=counts.astype(np.int64, copy=False),
            cold=len(self.open_lines), duplicate_hits=self.duplicate_hits)


def simulate_stream(stream: LineStream, config: CacheConfig) -> CacheStats:
    """Vectorized exact LRU simulation of one collapsed stream."""
    return SetDistanceProfile.from_stream(stream, config.n_sets).stats_for(config)


def sequence_stats(collapsed_segments, config: CacheConfig) -> list:
    """Per-segment :class:`CacheStats` for consecutive collapsed
    segments through ONE LRU cache (the inter-frame study).

    ``collapsed_segments`` is a list of ``(run_lines, duplicate_hits)``
    pairs, each collapsed independently so boundary repeats still count
    as (distance-1) hits of the later segment.  Concatenating the
    segments reproduces the carried cache state exactly: a per-set
    stack distance never sees segment boundaries, just like the warm
    cache it models.  So the per-access verdicts of
    :func:`run_outcomes` over the joined stream, counted per segment,
    are the answer.
    """
    if not collapsed_segments:
        return []
    runs = [np.asarray(r, dtype=np.int64) for r, _ in collapsed_segments]
    lengths = [len(r) for r in runs]
    segment = np.repeat(np.arange(len(runs), dtype=np.int64), lengths)
    miss, cold = run_outcomes(np.concatenate(runs), config)
    miss_counts = np.bincount(segment[miss], minlength=len(runs))
    cold_counts = np.bincount(segment[cold], minlength=len(runs))
    return [CacheStats(config=config,
                       accesses=length + int(duplicate_hits),
                       misses=int(misses), cold_misses=int(colds))
            for length, (_, duplicate_hits), misses, colds
            in zip(lengths, collapsed_segments, miss_counts, cold_counts)]


__all__ = [
    "COLD",
    "KERNELS",
    "PartialSetProfile",
    "SetDistanceProfile",
    "check_kernel",
    "dominance_counts",
    "line_miss_mask",
    "miss_mask",
    "miss_stream",
    "per_set_distances",
    "previous_occurrences",
    "run_outcomes",
    "sequence_stats",
    "set_distance_histogram",
    "set_partition",
    "simulate_stream",
    "stack_distances",
]
