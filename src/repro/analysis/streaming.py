"""Shared primitives for the analysis kernels' chunk folds.

Every heavy kernel in :mod:`repro.analysis` is one fold over
``source.chunks()``.  A :class:`~repro.frame.ChunkedTable` streams its
chunks with bounded state; a materialized :class:`~repro.frame.Table`
is a one-chunk stream (``Table.chunks()`` yields the table itself), so
the same body serves both and there is no second, materialized copy
of any kernel's arithmetic.

The contract a fold keeps:

* integer counts (and the shares derived from them) are exact on any
  chunking;
* float sums fold chunk partials, deterministic for a fixed chunking
  but possibly a last-ULP away from a single-pass numpy sum;
* quantiles come from a :class:`~repro.frame.QuantileSketch` made by
  :func:`new_sketch`.  A Table is exact because its sketch covers its
  rows: the capacity is at least the row count, so the sketch never
  compacts and answers ``np.quantile``/``np.median`` bit for bit.  A
  chunk stream gets the default bounded sketch (exact until it first
  compacts, rank-bounded after).

:func:`new_sketch` and :func:`ordered_chunks` are the only two places
that look at which representation a kernel was handed.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.errors import AnalysisError
from repro.frame import DEFAULT_SKETCH_K, ChunkedTable, QuantileSketch, Table, concat_tables


def new_sketch(source: Any) -> QuantileSketch:
    """A quantile sketch for values drawn from ``source``'s rows.

    Sized to hold every row of a materialized Table (so it stays
    exact); the default bounded sketch for a chunk stream.
    """
    if isinstance(source, ChunkedTable):
        return QuantileSketch()
    return QuantileSketch(k=max(DEFAULT_SKETCH_K, source.num_rows))


def ordered_chunks(source: Any, key: str) -> Iterator[Table]:
    """The chunks of ``source`` in ascending ``key`` order.

    A Table is stable-sorted once.  A chunk stream cannot be sorted in
    bounded memory, so it must already arrive in ``key`` order (the
    pipeline's job streams are in ``job_id`` order, which is also
    submit order); that is verified chunk by chunk.
    """
    if not isinstance(source, ChunkedTable):
        if source.num_rows:
            yield source.sort_by(key)
        return
    last = -np.inf
    for chunk in source.chunks():
        values = np.asarray(chunk[key], dtype=float)
        if values[0] < last or np.any(np.diff(values) < 0):
            raise AnalysisError(f"this fold needs a chunk stream sorted by {key!r}")
        last = values[-1]
        yield chunk


class SortedGroup:
    """One key's rows, held as ``(chunk, start, end)`` spans.

    ``num_rows`` is known without copying a row; :meth:`table` builds
    the group's Table on first use, so a fold that skips a group (say,
    every one-row group) never pays for it.
    """

    __slots__ = ("num_rows", "_spans", "_table")

    def __init__(self) -> None:
        self.num_rows = 0
        self._spans: list[tuple[Table, int, int]] = []
        self._table: Table | None = None

    def _extend(self, chunk: Table, start: int, end: int) -> None:
        self._spans.append((chunk, start, end))
        self.num_rows += end - start

    def table(self) -> Table:
        """The group's rows as one Table, in arrival order."""
        if self._table is None:
            parts = [chunk.take(np.arange(start, end)) for chunk, start, end in self._spans]
            self._table = parts[0] if len(parts) == 1 else concat_tables(parts)
            self._spans = []
        return self._table


def iter_sorted_groups(chunks: Any, key: str) -> Iterator[tuple[Any, SortedGroup]]:
    """Yield ``(key_value, group)`` from ``key``-sorted chunks.

    The chunks must arrive grouped by ``key`` (e.g. from
    :func:`ordered_chunks`); consecutive equal keys form one
    :class:`SortedGroup`.  Only the current group's chunks are held
    beyond the chunk being read, so a per-group fold costs O(largest
    group) memory rather than O(rows).  Groups straddling chunk
    boundaries are stitched back together with ``concat_tables``, which
    keeps each group's row order — and therefore any per-group
    arithmetic — independent of the chunking.
    """
    pending_key: Any = None
    group: SortedGroup | None = None
    for chunk in chunks:
        keys = np.asarray(chunk.column(key))
        change = np.nonzero(keys[1:] != keys[:-1])[0]
        starts = np.concatenate(([0], change + 1))
        ends = np.concatenate((change + 1, [len(keys)]))
        for start, end in zip(starts.tolist(), ends.tolist()):
            value = keys[start]
            if group is None or value != pending_key:
                if group is not None:
                    yield pending_key, group
                pending_key, group = value, SortedGroup()
            group._extend(chunk, start, end)
    if group is not None:
        yield pending_key, group
