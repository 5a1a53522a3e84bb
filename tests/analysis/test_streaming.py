"""The one fold path: a materialized Table is a one-chunk stream.

Every analysis kernel is a single fold over ``source.chunks()``.  On a
Table that fold must give the exact answers the kernels always gave on
materialized input, which rests on two rules in
:mod:`repro.analysis.streaming`: ``new_sketch`` sizes a Table's sketch
to its row count (so it never compacts), and ``ordered_chunks`` sorts a
Table once while only verifying a stream's order.
"""

import numpy as np
import pytest

from repro.analysis.lifecycle import (
    class_utilization_boxes,
    lifecycle_breakdown,
    user_lifecycle_composition,
)
from repro.analysis.multigpu import SIZE_BUCKETS, SIZE_LABELS, user_gpu_breadth, wait_by_size
from repro.analysis.power import power_headroom
from repro.analysis.queueing import workload_parameters
from repro.analysis.stats import column_ecdf, ecdf
from repro.analysis.streaming import new_sketch, ordered_chunks
from repro.analysis.timeline import daily_gpu_hours_from_jobs
from repro.analysis.users import user_table
from repro.errors import AnalysisError
from repro.frame import DEFAULT_SKETCH_K, QuantileSketch, Table
from repro.slurm.job import LIFECYCLE_CLASSES

#: Large enough that every class and the 1-GPU bucket hold more rows
#: than the default sketch keeps before it first compacts.
NUM_ROWS = 8 * DEFAULT_SKETCH_K


def _jobs(n: int = NUM_ROWS) -> Table:
    rng = np.random.default_rng(1234)
    return Table(
        {
            "job_id": np.arange(n),
            "user": np.asarray([f"u{i}" for i in rng.integers(0, 40, n)], dtype=object),
            "lifecycle_class": np.asarray(rng.choice(LIFECYCLE_CLASSES, n), dtype=object),
            "submit_time_s": rng.uniform(0.0, 1e6, n),
            "run_time_s": rng.lognormal(7.0, 1.5, n),
            "wait_time_s": rng.exponential(40.0, n),
            "gpu_hours": rng.exponential(3.0, n),
            "num_gpus": rng.choice([1, 1, 1, 1, 2, 4, 16], n).astype(float),
            "sm_mean": rng.uniform(0.0, 100.0, n),
            "mem_bw_mean": rng.exponential(5.0, n),
            "mem_size_mean": rng.uniform(0.0, 60.0, n),
            "power_w_mean": rng.normal(60.0, 15.0, n),
            "power_w_max": rng.normal(120.0, 30.0, n),
        }
    )


def _lifecycle_pairs(jobs):
    out = lifecycle_breakdown(jobs)
    classes = np.asarray(list(jobs["lifecycle_class"]))
    runtimes = np.asarray(jobs["run_time_s"], dtype=float)
    return [
        (row["median_runtime_min"], np.median(runtimes[classes == row["lifecycle_class"]]) / 60.0)
        for row in out.iter_rows()
    ]


def _boxes_pairs(jobs):
    out = class_utilization_boxes(jobs)
    classes = np.asarray(list(jobs["lifecycle_class"]))
    pairs = []
    for row in out.iter_rows():
        values = np.asarray(jobs[row["metric"]], dtype=float)[classes == row["lifecycle_class"]]
        pairs.append((row["p25"], np.percentile(values, 25)))
        pairs.append((row["median"], np.median(values)))
        pairs.append((row["p75"], np.percentile(values, 75)))
    return pairs


def _wait_pairs(jobs):
    out = wait_by_size(jobs)
    counts = np.asarray(jobs["num_gpus"], dtype=float)
    waits = np.asarray(jobs["wait_time_s"], dtype=float)
    expected = {
        label: np.median(waits[(counts >= lo) & (counts <= hi)])
        for (lo, hi), label in zip(SIZE_BUCKETS, SIZE_LABELS)
    }
    return [(row["median_wait_s"], expected[row["gpus"]]) for row in out.iter_rows()]


def _power_pairs(jobs):
    out = power_headroom(jobs)
    return [
        (out.median_avg_power_w, np.median(np.asarray(jobs["power_w_mean"], dtype=float))),
        (out.median_max_power_w, np.median(np.asarray(jobs["power_w_max"], dtype=float))),
    ]


def _ecdf_pairs(jobs):
    sketch = column_ecdf(jobs, "sm_mean")
    values = np.asarray(jobs["sm_mean"], dtype=float)
    return [
        (sketch.median(), np.median(values)),
        (sketch.quantile(0.25), np.percentile(values, 25)),
        (sketch.quantile(0.75), np.percentile(values, 75)),
    ]


@pytest.mark.parametrize(
    "pairs",
    [_lifecycle_pairs, _boxes_pairs, _wait_pairs, _power_pairs, _ecdf_pairs],
    ids=["lifecycle_breakdown", "class_utilization_boxes", "wait_by_size", "power_headroom", "column_ecdf"],
)
def test_table_quantiles_are_exact_past_default_capacity(pairs):
    jobs = _jobs()
    got = pairs(jobs)
    assert got
    for ours, exact in got:
        assert ours == float(exact)


class TestTableStreamProtocol:
    def test_chunks_yields_the_table(self):
        jobs = _jobs(10)
        assert [chunk is jobs for chunk in jobs.chunks()] == [True]

    def test_empty_table_yields_no_chunk(self):
        assert list(Table({"x": np.empty(0)}).chunks()) == []

    def test_map_chunks_applies_once(self):
        jobs = _jobs(10)
        assert jobs.map_chunks(lambda t: t.head(3), preserves_rows=False).num_rows == 3


@pytest.mark.parametrize(
    "kernel",
    [user_table, user_gpu_breadth, user_lifecycle_composition, daily_gpu_hours_from_jobs],
)
def test_empty_table_without_columns_is_an_analysis_error(kernel):
    # no rows means no chunk, so no kernel looks for a column
    with pytest.raises(AnalysisError):
        kernel(Table.from_rows([]))


class TestNewSketch:
    def test_table_sketch_covers_its_rows(self):
        jobs = _jobs()
        assert new_sketch(jobs).k == NUM_ROWS
        assert new_sketch(_jobs(10)).k == DEFAULT_SKETCH_K

    def test_stream_gets_the_bounded_sketch(self):
        assert new_sketch(_jobs().to_chunked(chunk_rows=100)).k == DEFAULT_SKETCH_K


class TestOrderedChunks:
    def test_table_is_sorted_once(self):
        jobs = _jobs(50)
        (chunk,) = ordered_chunks(jobs, "submit_time_s")
        assert np.all(np.diff(np.asarray(chunk["submit_time_s"])) >= 0)

    def test_sorted_stream_passes_through(self):
        stream = _jobs(50).sort_by("submit_time_s").to_chunked(chunk_rows=7)
        chunks = list(ordered_chunks(stream, "submit_time_s"))
        assert sum(c.num_rows for c in chunks) == 50

    def test_unsorted_stream_rejected(self):
        with pytest.raises(AnalysisError, match="sorted by 'submit_time_s'"):
            list(ordered_chunks(_jobs(50).to_chunked(chunk_rows=7), "submit_time_s"))


def test_exact_median_is_numpy_median():
    """``np.quantile(.., 0.5)`` misses this midpoint by one ULP."""
    values = np.array([63.645, 283.681])
    assert np.quantile(values, 0.5) != np.median(values)
    assert QuantileSketch().update(values).median() == np.median(values)
    assert ecdf(values).median() == np.median(values)


def test_workload_moments_drift_is_last_ulp():
    """Mean and variance fold sequentially instead of numpy's pairwise
    sum; the drift stays within a few ULP."""
    jobs = _jobs()
    params = workload_parameters(jobs)
    runtimes = np.asarray(jobs["run_time_s"], dtype=float)
    assert params["mean_service_s"] == pytest.approx(runtimes.mean(), rel=1e-12)
    assert params["service_scv"] == pytest.approx(
        runtimes.var() / runtimes.mean() ** 2, rel=1e-12
    )
