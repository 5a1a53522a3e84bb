"""Group-by support for :class:`repro.frame.Table`.

The paper's pipeline aggregates jobs by user, by GPU count, by
interface type, and by life-cycle class.  :class:`GroupBy` supports
iteration over groups and a vectorised ``aggregate`` that applies named
reducers to columns.

Execution model
---------------
Keys are factorized once (:mod:`repro.frame.factorize`): every row gets
an integer group code in first-seen order, and one stable sort of the
codes turns the table into contiguous per-group segments.  From there:

* ``sizes`` and the ``count`` reducer are segment-length differences;
* ``min``/``max``/``sum`` run as ``np.{minimum,maximum,add}.reduceat``
  over the sorted value column; ``mean``/``std`` derive from those;
* ``first``/``last`` fancy-index the segment boundaries;
* ``median`` sorts values within segments via one ``lexsort`` and
  averages the two middle elements per segment.

So that the vectorized kernels stay **bit-for-bit identical** to the
row-at-a-time reference path (:mod:`repro.frame.reference`), the
builtin accumulation reducers are defined with *sequential* left-to-
right summation (a single-segment ``np.add.reduceat``) rather than
``np.sum``'s pairwise summation — ``reduceat`` reduces each segment
sequentially, so defining the scalar reducer the same way makes "one
group at a time" and "all groups at once" agree to the last ULP.  The
property tests assert exactly that.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import FrameError
from repro.frame.factorize import Factorization, factorize_columns
from repro.frame.table import Table, _unwrap
from repro.obs.runtime import record_kernel

Reducer = Callable[[np.ndarray], Any]

_SEGMENT_START = np.zeros(1, dtype=np.intp)


def _seq_sum(values: np.ndarray) -> float:
    """Sequential left-to-right sum — the scalar twin of ``add.reduceat``."""
    if len(values) == 0:
        return 0.0
    return float(np.add.reduceat(values, _SEGMENT_START)[0])


def _seq_mean(a: np.ndarray) -> float:
    floats = a.astype(float)
    return _seq_sum(floats) / len(floats)


def _seq_std(a: np.ndarray) -> float:
    floats = a.astype(float)
    mean = _seq_sum(floats) / len(floats)
    centered = floats - mean
    return float(np.sqrt(_seq_sum(centered * centered) / len(floats)))


_BUILTIN_REDUCERS: dict[str, Reducer] = {
    "mean": _seq_mean,
    "sum": lambda a: _seq_sum(a.astype(float)),
    "min": lambda a: float(np.min(a.astype(float))),
    "max": lambda a: float(np.max(a.astype(float))),
    "median": lambda a: float(np.median(a.astype(float))),
    "std": _seq_std,
    "count": lambda a: int(len(a)),
    "first": lambda a: _unwrap(a[0]),
    "last": lambda a: _unwrap(a[-1]),
}


class GroupBy:
    """Grouping of a table by one or more key columns.

    Group order is first-seen order of the key; row order within a
    group is the table's row order (the factorization sort is stable).
    """

    def __init__(self, table: Table, keys: Sequence[str]) -> None:
        if not keys:
            raise FrameError("group_by requires at least one key column")
        self._table = table
        self._keys = tuple(keys)
        # An empty table, like an empty stream, has no groups whatever
        # its columns; only a table with rows must carry every key.
        self._fact: Factorization = factorize_columns(
            [
                table.column(k) if table.num_rows or k in table else np.empty(0)
                for k in self._keys
            ]
        )
        self._key_tuples: list[tuple[Any, ...]] | None = None
        self._lookup: dict[tuple[Any, ...], int] | None = None

    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return self._fact.num_groups

    def keys(self) -> list[tuple[Any, ...]]:
        """Group keys in first-seen order."""
        if self._fact.num_groups == 0:
            return []
        if self._key_tuples is None:
            reps = [
                self._table.column(k)[self._fact.first_rows] for k in self._keys
            ]
            self._key_tuples = [
                tuple(_unwrap(col[g]) for col in reps)
                for g in range(self._fact.num_groups)
            ]
        return list(self._key_tuples)

    def _group_rows(self, group: int) -> np.ndarray:
        f = self._fact
        return f.order[f.starts[group] : f.starts[group + 1]]

    def __iter__(self) -> Iterator[tuple[tuple[Any, ...], Table]]:
        for group, key in enumerate(self.keys()):
            yield key, self._table.take(self._group_rows(group))

    def group(self, *key: Any) -> Table:
        """Return the sub-table for one group key."""
        if self._lookup is None:
            self._lookup = {k: g for g, k in enumerate(self.keys())}
        k = tuple(key)
        group = self._lookup.get(k)
        if group is None:
            raise FrameError(f"no group with key {k!r}")
        return self._table.take(self._group_rows(group))

    def _key_columns(self) -> dict[str, np.ndarray]:
        """Key columns of the output table, one row per group."""
        return {
            name: self._table.column(name)[self._fact.first_rows]
            for name in self._keys
        }

    def sizes(self) -> Table:
        """Return a table of group keys and their row counts."""
        if self._fact.num_groups == 0:
            return Table.from_rows([])
        data = self._key_columns()
        data["count"] = self._fact.sizes.astype(np.int64, copy=False)
        return Table(data)

    # ------------------------------------------------------------------
    def aggregate(self, spec: Mapping[str, Sequence[str] | str]) -> Table:
        """Aggregate columns per group.

        ``spec`` maps a column name to one reducer name or a list of
        reducer names (``mean``/``sum``/``min``/``max``/``median``/
        ``std``/``count``/``first``/``last``).  The result has one row
        per group with columns ``{column}_{reducer}``.
        """
        record_kernel("aggregate", self._table.num_rows)
        normalized: list[tuple[str, str]] = []
        for column, reducers in spec.items():
            if isinstance(reducers, str):
                reducers = [reducers]
            for name in reducers:
                if name not in _BUILTIN_REDUCERS:
                    raise FrameError(
                        f"unknown reducer {name!r}; choose from {sorted(_BUILTIN_REDUCERS)}"
                    )
                normalized.append((column, name))

        if self._fact.num_groups == 0:
            return Table.from_rows([])
        data = self._key_columns()
        sorted_cache: dict[str, np.ndarray] = {}
        for column, name in normalized:
            values = sorted_cache.get(column)
            if values is None:
                values = sorted_cache[column] = self._table.column(column)[
                    self._fact.order
                ]
            data[f"{column}_{name}"] = _reduce_segments(values, self._fact, name)
        return Table(data)

    def apply(self, fn: Callable[[Table], Mapping[str, Any]]) -> Table:
        """Apply ``fn`` to each group's sub-table; collect dict results."""
        from repro.frame.builder import TableBuilder

        if self._fact.num_groups == 0:
            return Table.from_rows([])
        builder = TableBuilder(columns=self._keys)
        for key, sub in self:
            row: dict[str, Any] = dict(zip(self._keys, key))
            row.update(fn(sub))
            builder.append_row(row)
        return builder.finish()

    def mean(self, column: str) -> Table:
        """Shorthand for ``aggregate({column: "mean"})``."""
        return self.aggregate({column: "mean"})

    def sum(self, column: str) -> Table:
        """Shorthand for ``aggregate({column: "sum"})``."""
        return self.aggregate({column: "sum"})


# ----------------------------------------------------------------------
# Streaming (chunk-at-a-time) aggregation
# ----------------------------------------------------------------------
#: Reducers with a mergeable partial state.  ``median`` is the one
#: builtin without one — it needs the whole group (materialize, or use
#: a :class:`repro.frame.sketch.QuantileSketch`).
STREAMABLE_REDUCERS = ("sum", "count", "mean", "min", "max", "std", "first", "last")

#: Streamable reducers whose chunked result is bit-for-bit identical to
#: the materialized kernel regardless of chunking.  ``sum``/``mean``/
#: ``std`` accumulate float partials instead (deterministic for a fixed
#: chunking, exact when the addends are exactly representable; see
#: docs/performance.md for the full contract).
EXACT_STREAMING_REDUCERS = ("count", "min", "max", "first", "last")


class StreamingAggregateState:
    """Mergeable partial-aggregate state for a chunked group-by.

    Feed chunks with :meth:`update`; combine parallel partials with
    :meth:`merge`; read the one-row-per-group table with
    :meth:`result`.  Group order is first-seen order across the update
    stream, matching :class:`GroupBy` on the concatenated input.  State
    size is O(groups), independent of total rows.
    """

    def __init__(self, keys: Sequence[str], spec: Mapping[str, Sequence[str] | str]) -> None:
        if not keys:
            raise FrameError("group_by requires at least one key column")
        self._keys = tuple(keys)
        normalized: list[tuple[str, str]] = []
        need: dict[str, set[str]] = {}
        for column, reducers in spec.items():
            if isinstance(reducers, str):
                reducers = [reducers]
            for name in reducers:
                if name not in _BUILTIN_REDUCERS:
                    raise FrameError(
                        f"unknown reducer {name!r}; choose from {sorted(_BUILTIN_REDUCERS)}"
                    )
                if name not in STREAMABLE_REDUCERS:
                    raise FrameError(
                        f"reducer {name!r} on column {column!r} cannot run "
                        "streaming: it has no mergeable partial state (it "
                        "needs every group value at once). Either call "
                        ".materialize() on the chunked table and aggregate "
                        "in memory, or feed the column into a "
                        "repro.frame.QuantileSketch (quantile(0.5) is a "
                        "rank-bounded median over one streaming pass); "
                        f"streamable reducers: {', '.join(STREAMABLE_REDUCERS)}"
                    )
                normalized.append((column, name))
                need.setdefault(column, set()).add(name)
        self._normalized = normalized
        self._need = need
        self._lookup: dict[tuple[Any, ...], int] = {}
        self._key_values: list[list[Any]] = [[] for _ in self._keys]
        self._counts = np.zeros(0, dtype=np.int64)
        self._sums: dict[str, np.ndarray] = {}
        self._sumsqs: dict[str, np.ndarray] = {}
        self._mins: dict[str, np.ndarray] = {}
        self._maxs: dict[str, np.ndarray] = {}
        self._firsts: dict[str, list[Any]] = {}
        self._lasts: dict[str, list[Any]] = {}
        for column, stats in need.items():
            if stats & {"sum", "mean", "std"}:
                self._sums[column] = np.zeros(0, dtype=float)
            if "std" in stats:
                self._sumsqs[column] = np.zeros(0, dtype=float)
            if "min" in stats:
                self._mins[column] = np.zeros(0, dtype=float)
            if "max" in stats:
                self._maxs[column] = np.zeros(0, dtype=float)
            if "first" in stats:
                self._firsts[column] = []
            if "last" in stats:
                self._lasts[column] = []

    @property
    def num_groups(self) -> int:
        return len(self._lookup)

    # ------------------------------------------------------------------
    def update(self, table: Table) -> "StreamingAggregateState":
        """Absorb one chunk."""
        if table.num_rows == 0:
            return self
        record_kernel("stream_aggregate", table.num_rows)
        fact = factorize_columns([table.column(k) for k in self._keys])
        reps = [table.column(k)[fact.first_rows] for k in self._keys]
        rep_rows = list(zip(*(col.tolist() for col in reps)))
        lookup = self._lookup
        gids = np.empty(fact.num_groups, dtype=np.intp)
        new_flags = np.zeros(fact.num_groups, dtype=bool)
        for g, key in enumerate(rep_rows):
            gid = lookup.get(key)
            if gid is None:
                gid = lookup[key] = len(lookup)
                for store, col in zip(self._key_values, reps):
                    store.append(col[g])
                new_flags[g] = True
            gids[g] = gid
        total = len(lookup)
        new_gids = gids[new_flags]
        old_mask = ~new_flags

        self._counts = _extend(self._counts, total, 0)
        self._counts[gids] += fact.sizes

        starts = fact.starts[:-1]
        sorted_cache: dict[str, np.ndarray] = {}
        for column, stats in self._need.items():
            values = sorted_cache.get(column)
            if values is None:
                values = sorted_cache[column] = table.column(column)[fact.order]
            if "first" in stats:
                firsts = self._firsts[column]
                chunk_firsts = values[starts]
                for g in np.flatnonzero(new_flags):
                    firsts.append(chunk_firsts[g])
            if "last" in stats:
                lasts = self._lasts[column]
                lasts.extend([None] * (total - len(lasts)))
                chunk_lasts = values[fact.starts[1:] - 1]
                for g in range(fact.num_groups):
                    lasts[gids[g]] = chunk_lasts[g]
            if not stats - {"first", "last", "count"}:
                continue
            floats = values.astype(float)
            if column in self._sums:
                partial = np.add.reduceat(floats, starts)
                arr = self._sums[column] = _extend(self._sums[column], total, 0.0)
                arr[new_gids] = partial[new_flags]
                arr[gids[old_mask]] += partial[old_mask]
            if column in self._sumsqs:
                partial = np.add.reduceat(floats * floats, starts)
                arr = self._sumsqs[column] = _extend(self._sumsqs[column], total, 0.0)
                arr[new_gids] = partial[new_flags]
                arr[gids[old_mask]] += partial[old_mask]
            if column in self._mins:
                partial = np.minimum.reduceat(floats, starts)
                arr = self._mins[column] = _extend(self._mins[column], total, np.inf)
                arr[new_gids] = partial[new_flags]
                old = gids[old_mask]
                arr[old] = np.minimum(arr[old], partial[old_mask])
            if column in self._maxs:
                partial = np.maximum.reduceat(floats, starts)
                arr = self._maxs[column] = _extend(self._maxs[column], total, -np.inf)
                arr[new_gids] = partial[new_flags]
                old = gids[old_mask]
                arr[old] = np.maximum(arr[old], partial[old_mask])
        return self

    def merge(self, other: "StreamingAggregateState") -> "StreamingAggregateState":
        """Fold another state into this one (parallel chunk partials).

        Groups unseen by ``self`` are appended in ``other``'s first-seen
        order, so merging states built from a partitioned stream gives
        the same group set (order depends on the merge order).
        """
        if other._keys != self._keys or other._normalized != self._normalized:
            raise FrameError("cannot merge streaming states with different specs")
        if not other._lookup:
            return self
        remap = np.empty(len(other._lookup), dtype=np.intp)
        new_other: list[int] = []
        for key, theirs in other._lookup.items():
            gid = self._lookup.get(key)
            if gid is None:
                gid = self._lookup[key] = len(self._lookup)
                for store, theirs_store in zip(self._key_values, other._key_values):
                    store.append(theirs_store[theirs])
                new_other.append(theirs)
            remap[theirs] = gid
        total = len(self._lookup)
        self._counts = _extend(self._counts, total, 0)
        np.add.at(self._counts, remap, other._counts)
        for ours, theirs, fill, combine in (
            (self._sums, other._sums, 0.0, "add"),
            (self._sumsqs, other._sumsqs, 0.0, "add"),
            (self._mins, other._mins, np.inf, "min"),
            (self._maxs, other._maxs, -np.inf, "max"),
        ):
            for column, their_arr in theirs.items():
                arr = ours[column] = _extend(ours[column], total, fill)
                if combine == "add":
                    np.add.at(arr, remap, their_arr)
                elif combine == "min":
                    np.minimum.at(arr, remap, their_arr)
                else:
                    np.maximum.at(arr, remap, their_arr)
        for column, their_firsts in other._firsts.items():
            firsts = self._firsts[column]
            for theirs in new_other:
                firsts.append(their_firsts[theirs])
        for column, their_lasts in other._lasts.items():
            lasts = self._lasts[column]
            lasts.extend([None] * (total - len(lasts)))
            for theirs, value in enumerate(their_lasts):
                lasts[remap[theirs]] = value
        return self

    # ------------------------------------------------------------------
    def result(self) -> Table:
        """The aggregate table: key columns plus ``{column}_{reducer}``."""
        total = len(self._lookup)
        if total == 0:
            return Table.from_rows([])
        data: dict[str, Any] = {
            name: _key_column(store)
            for name, store in zip(self._keys, self._key_values)
        }
        counts = self._counts[:total]
        for column, name in self._normalized:
            out = f"{column}_{name}"
            if name == "count":
                data[out] = counts.copy()
            elif name == "sum":
                data[out] = self._sums[column][:total].copy()
            elif name == "mean":
                data[out] = self._sums[column][:total] / counts
            elif name == "std":
                mean = self._sums[column][:total] / counts
                variance = self._sumsqs[column][:total] / counts - mean * mean
                data[out] = np.sqrt(np.where(np.isnan(variance), np.nan, np.maximum(variance, 0.0)))
            elif name == "min":
                data[out] = self._mins[column][:total].copy()
            elif name == "max":
                data[out] = self._maxs[column][:total].copy()
            elif name == "first":
                data[out] = _key_column(self._firsts[column])
            elif name == "last":
                data[out] = _key_column(self._lasts[column])
        return Table(data)

    def sizes(self) -> Table:
        """Key columns plus a ``count`` column, like :meth:`GroupBy.sizes`."""
        total = len(self._lookup)
        if total == 0:
            return Table.from_rows([])
        data: dict[str, Any] = {
            name: _key_column(store)
            for name, store in zip(self._keys, self._key_values)
        }
        data["count"] = self._counts[:total].copy()
        return Table(data)


def _extend(arr: np.ndarray, n: int, fill: Any) -> np.ndarray:
    """Grow a running per-group array to ``n`` slots, filling new ones."""
    if n <= len(arr):
        return arr
    grown = np.full(n, fill, dtype=arr.dtype)
    grown[: len(arr)] = arr
    return grown


def _key_column(values: list[Any]) -> np.ndarray:
    """Materialize collected per-group scalars as a column.

    The scalars were plucked from per-chunk numpy columns, so rebuild
    through a list round-trip: numeric lists become typed arrays,
    anything else an object column — the same coercion
    :class:`~repro.frame.Table` applies to user input.
    """
    from repro.frame.column import as_column

    return as_column([_unwrap(v) for v in values])


def _reduce_segments(values: np.ndarray, fact: Factorization, name: str) -> np.ndarray:
    """Reduce a code-sorted value column into one value per group.

    Every kernel is whole-column vectorized and bit-identical to
    applying the matching ``_BUILTIN_REDUCERS`` entry per group.
    """
    starts = fact.starts[:-1]
    if name == "count":
        return fact.sizes.astype(np.int64, copy=False)
    if name == "first":
        return values[starts]
    if name == "last":
        return values[fact.starts[1:] - 1]
    floats = values.astype(float)
    if name in ("min", "max"):
        ufunc = np.minimum if name == "min" else np.maximum
        return ufunc.reduceat(floats, starts)
    counts = fact.sizes
    if name == "sum":
        return np.add.reduceat(floats, starts)
    if name == "mean":
        return np.add.reduceat(floats, starts) / counts
    if name == "std":
        means = np.add.reduceat(floats, starts) / counts
        centered = floats - np.repeat(means, counts)
        return np.sqrt(np.add.reduceat(centered * centered, starts) / counts)
    if name == "median":
        return _segment_median(floats, fact)
    raise FrameError(f"no vectorized kernel for reducer {name!r}")


def _segment_median(floats: np.ndarray, fact: Factorization) -> np.ndarray:
    """Per-segment median: value-sort within segments, average middles.

    Matches ``np.median`` bit-for-bit: the even-count cell is the same
    ``(a + b) / 2`` of the two middle elements, and any NaN in a
    segment yields NaN (NaNs sort last, so ``np.median`` sees one at
    the top and poisons the result).
    """
    counts = fact.sizes
    starts = fact.starts[:-1]
    seg_dtype = np.uint16 if fact.num_groups <= np.iinfo(np.uint16).max else np.intp
    segment_ids = np.repeat(np.arange(fact.num_groups, dtype=seg_dtype), counts)
    # Sort by (segment, value) in two passes: an unstable value sort
    # (ties between equal floats cannot change a median) followed by a
    # stable radix sort of the small segment ids — much cheaper than
    # one lexsort with a float key.
    by_value_order = np.argsort(floats)
    regroup = np.argsort(segment_ids[by_value_order], kind="stable")
    by_value = floats[by_value_order[regroup]]
    lo = by_value[starts + (counts - 1) // 2]
    hi = by_value[starts + counts // 2]
    medians = np.where(counts % 2 == 1, lo, (lo + hi) / 2.0)
    has_nan = np.add.reduceat(np.isnan(floats), starts) > 0
    if has_nan.any():
        medians = np.where(has_nan, np.nan, medians)
    return medians
