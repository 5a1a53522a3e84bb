"""Every registered figure, timed once on each dataset representation.

The registry runs over the materialized dataset and over
``dataset.streaming_view()``: the two inputs of the analysis layer's
one fold path (a materialized table is a one-chunk stream).  Each run
also checks the figure's paper *shape* from :data:`SHAPES`, so a
speedup that moves a figure fails here.  Under ``python -m repro
bench`` the per-figure seconds of each representation land in
``BENCH_<n>.json`` (stats ``figures_materialized`` and
``figures_streaming``).

    PYTHONPATH=src python -m pytest -q benchmarks/bench_figures.py
"""

from __future__ import annotations

import time

import pytest

from repro.bench import record_bench_stat
from repro.figures.registry import all_figures, run_figure

#: Figure id -> ``(shape, check)`` rows; ``check(m)`` reads a
#: comparison's measured value as ``m(name)``.
SHAPES = {
    "table1": [
        ("two GPUs per node", lambda m: m("GPUs per node") == 2),
        ("32 GB of GPU RAM", lambda m: m("GPU RAM") == 32.0),
    ],
    "fig03": [
        ("GPU jobs run longer than CPU jobs",
         lambda m: m("GPU runtime median") > m("CPU runtime median")),
        ("GPU jobs wait less than CPU jobs",
         lambda m: m("GPU jobs waiting <2% of service") > m("CPU jobs waiting <2% of service")),
    ],
    "fig04": [
        ("SM median above memory median", lambda m: m("SM util median") > m("memory util median")),
        ("most jobs below 50% SM", lambda m: m("jobs with SM util >50%") < 0.5),
    ],
    "fig05": [
        ("'other' interface dominates", lambda m: m("other job share") > 0.5),
        ("map-reduce is rare", lambda m: m("map-reduce job share") < 0.05),
    ],
    "fig06": [
        ("active share spreads out",
         lambda m: m("active-time share p75") > m("active-time share p25")),
        ("active intervals are irregular", lambda m: m("active interval CoV median") > 0.3),
    ],
    "fig07": [
        ("SM is the dominant bottleneck",
         lambda m: m("sm bottleneck fraction") > m("mem_bw bottleneck fraction")),
    ],
    "fig08": [
        ("no pair saturates together often", lambda m: m("max of any pair (< 0.10)") < 0.15),
    ],
    "fig09": [
        ("most jobs survive a 150 W cap", lambda m: m("unimpacted at 150 W cap") > 0.5),
        ("few average above 150 W", lambda m: m("avg-impacted at 150 W cap") < 0.10),
    ],
    "fig10": [
        ("median user runs hours-long jobs", lambda m: m("user avg runtime median") > 60.0),
        ("median user has low SM use", lambda m: m("user avg SM median") < 30.0),
    ],
    "fig11": [
        ("a user's runtimes vary widely", lambda m: m("user runtime CoV median") > 0.7),
    ],
    "fig12": [
        ("experts use GPUs better",
         lambda m: m("njobs vs avg SM (high +)") > m("njobs vs SM CoV (< 0.5)")),
        ("experts are no more predictable", lambda m: m("njobs vs SM CoV (< 0.5)") < 0.5),
    ],
    "fig13": [
        ("single-GPU jobs dominate by count", lambda m: m("single-GPU job fraction") > 0.7),
        ("multi-GPU jobs dominate by hours",
         lambda m: m("multi-GPU share of GPU hours") > 1.0 - m("single-GPU job fraction")),
    ],
    "fig14": [
        ("dropping idle GPUs collapses the CoV",
         lambda m: m("active-only SM CoV median (low)") < 0.3),
    ],
    "fig15": [
        ("mature jobs are the majority", lambda m: m("mature job share") > 0.45),
        ("mature jobs are a minority of hours",
         lambda m: m("mature GPU-hour share") < m("mature job share")),
    ],
    "fig16": [
        ("mature/exploratory out-use dev/IDE",
         lambda m: m("mature/expl >> dev/IDE ordering holds") == 1.0),
        ("IDE jobs barely touch the GPU", lambda m: m("ide SM median") < 1.0),
    ],
    "fig17": [
        ("many users are mostly non-mature",
         lambda m: m("users with mature job share <40%") > 0.05),
    ],
    "queue_waits": [
        ("multi-GPU jobs wait no longer",
         lambda m: m("median wait, 2 GPU(s)") <= m("median wait, 1 GPU(s)")),
    ],
    "pareto": [
        ("top 5% of users dominate", lambda m: m("top 5% users' job share") > 0.25),
        ("top 20% of users dominate", lambda m: m("top 20% users' job share") > 0.6),
    ],
    "ext_timeline": [
        ("the cluster is over-provisioned", lambda m: m("mean GPU utilization (<0.7)") < 0.7),
    ],
    "ext_prediction": [
        ("users are not predictable", lambda m: m("runtime predictability gain (<0.5)") < 0.5),
    ],
    "ext_queueing": [
        ("service times are high-variance", lambda m: m("service-time SCV (>>1)") > 1.0),
    ],
}


def test_every_figure_has_a_shape():
    assert sorted(SHAPES) == sorted(all_figures())


@pytest.fixture(scope="module")
def views(dataset):
    return {"materialized": dataset, "streaming": dataset.streaming_view()}


@pytest.fixture(scope="module")
def figure_seconds():
    """Per-representation seconds recorded so far: each stat write
    replaces the previous one, so the last carries every figure."""
    return {"materialized": {}, "streaming": {}}


@pytest.mark.parametrize("representation", ["materialized", "streaming"])
@pytest.mark.parametrize("figure_id", all_figures())
def test_figure(benchmark, views, figure_seconds, figure_id, representation):
    start = time.perf_counter()
    result = benchmark.pedantic(
        run_figure, args=(figure_id, views[representation]), rounds=1, iterations=1
    )
    seconds = figure_seconds[representation]
    seconds[f"{figure_id}_s"] = round(time.perf_counter() - start, 6)
    record_bench_stat(f"figures_{representation}", **seconds)

    def measured(name: str) -> float:
        return result.get(name).measured

    failed = [shape for shape, check in SHAPES[figure_id] if not check(measured)]
    assert not failed, f"{figure_id} on the {representation} dataset: {failed}"
