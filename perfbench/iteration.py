"""One benchmark iteration, run in a fresh interpreter by ``run.py``.

A fresh process per iteration keeps every iteration cold in the same
way (no module-level memo survives from the previous one) and lets the
iteration measure its own peak memory without the harness's.  The
iteration prints one JSON object as the last line of standard output.

Two phases:

``fill``
    Set-up for ``warm_figures``: build the dataset and store it in the
    cache under ``<workdir>/cache``.  Not timed as work.
``timed``
    Import and set up, then run the workload's timed calls through the
    public API (``Session``, ``DatasetCache``, ``run_figure``), each
    wrapped in a benchmark-owned timer.  With ``--trace 1`` the calls
    run under an enabled tracer / metrics registry / flight recorder
    and the layer counters are reported; with ``--trace 0`` they run
    under the null triple.

Run by hand from the repository root::

    PYTHONPATH=src python3 perfbench/iteration.py --phase timed \\
        --workload cold_build --seed 1 --scale 0.02 --workdir /tmp/it
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
import traceback
from pathlib import Path

WORKLOADS = ("cold_build", "warm_figures", "coupled_stream")

#: Users in every dataset: the paper scenario's population at scale 0.1.
#: At scale 0.01 the scenario would draw 19, and a few heavy users would
#: set most of a dataset's cost; 60 users make datasets of one size
#: cost alike, so a run's result depends less on its seed.
USERS = 60

#: Nodes an island needs for the largest job the paper scenario makes
#: (16 GPUs at 2 GPUs per node); a two-island machine needs twice that
#: to pass ``check_island_capacity`` for every seed.
ISLAND_MIN_NODES = 8
PARTITIONS = 2

#: Modules the timed calls would otherwise import lazily on first use.
#: Importing them is set-up, paid once per process.
LAZY_MODULES = (
    "repro.cluster.spec",
    "repro.dataset",
    "repro.figures.registry",
    "repro.monitor.collector",
    "repro.monitor.timeseries",
    "repro.pipeline",
    "repro.pipeline.shard",
    "repro.slurm.accounting",
    "repro.slurm.interchange",
    "repro.slurm.parallel",
    "repro.slurm.scheduler",
    "repro.validation",
    "repro.workload.calibration",
    "repro.workload.cohorts",
    "repro.workload.generator",
    "repro.workload.scenarios",
)

#: Counters summed over their labels, by per-layer metric name.
COUNTERS = {
    "slurm.events": "repro_scheduler_events_total",
    "slurm.dispatched": "repro_scheduler_dispatch_total",
    "slurm.migrations": "repro_shard_migrations_total",
    "monitor.sampling_tasks": "repro_sampling_tasks_total",
    "monitor.series_kept": "repro_monitor_series_kept_total",
    "frame.spill_bytes": "repro_frame_spill_bytes_total",
    "frame.spill_raw_bytes": "repro_frame_spill_raw_bytes_total",
    "frame.stream_chunks": "repro_frame_stream_chunks_total",
    "frame.stream_rows": "repro_frame_stream_rows_total",
    "frame.kernel_calls": "repro_frame_kernel_calls_total",
    "frame.kernel_rows": "repro_frame_kernel_rows_total",
}

#: Gauges (max over labels), by per-layer metric name.
GAUGES = {
    "slurm.peak_queue": "repro_scheduler_peak_queue",
    "shard.island_peak_rss_bytes": "repro_shard_island_peak_rss_bytes",
}

#: Digest order and sort keys of the three job tables.
TABLE_KEYS = {
    "jobs": ("job_id",),
    "gpu_jobs": ("job_id",),
    "per_gpu": ("job_id", "gpu_index"),
}


def workload_config(workload: str, seed: int, scale: float):
    """The ``WorkloadConfig`` a workload builds at ``seed`` and ``scale``."""
    import dataclasses

    from repro.workload.scenarios import make_scenario

    config = make_scenario("paper", scale=scale, seed=seed)
    config = dataclasses.replace(config, num_users=math.ceil(USERS / math.sqrt(scale)))
    if workload == "coupled_stream":
        num_nodes = config.num_nodes
        if config.scaled_nodes < PARTITIONS * ISLAND_MIN_NODES:
            num_nodes = math.ceil(PARTITIONS * ISLAND_MIN_NODES / scale)
        config = dataclasses.replace(config, partitions=PARTITIONS, num_nodes=num_nodes)
    return config


def interchange_config():
    """Six-hour lockstep epochs; migrate jobs queued for over an hour."""
    from repro.slurm.interchange import InterchangeConfig

    return InterchangeConfig(epoch_s=6 * 3600.0, migrate_after_s=3600.0)


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def reset_peak_rss() -> None:
    """Reset this process's peak-RSS high-water mark (Linux only; elsewhere
    the peak includes set-up)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's, in MiB."""
    import resource

    own = None
    try:
        status = Path("/proc/self/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        own = float(match.group(1)) if match else None
    except OSError:
        pass
    if own is None:
        own = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    child = float(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return (own + child) / 1024.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def host_seconds() -> float:
    """Seconds a fixed kernel takes on this host now: the host's speed.

    The kernel mixes what the timed calls spend their time on (numpy
    sorts and folds, a Python dict loop, pickling small records) and
    uses nothing from ``src/``, so a change to the program cannot move
    it.  On a shared host the same build takes 15-30% longer in one
    minute than in the next; times divided by this one, measured just
    before and after the timed part, do not drift with it.
    """
    import pickle

    import numpy as np

    rng = np.random.default_rng(20220214)
    values = rng.random(400_000)
    keys = (values * 5000).astype(np.int64)
    records = [{"job": i, "user": f"u{i % 97}", "gpus": i % 8, "t": i * 0.5} for i in range(4000)]
    start = time.perf_counter()
    order = np.argsort(keys, kind="stable")
    np.cumsum(values[order])
    np.unique(keys, return_counts=True)
    np.bincount(keys, weights=values)
    np.sort(values)
    folds: dict[int, float] = {}
    for i in range(200_000):
        k = i % 1013
        folds[k] = folds.get(k, 0.0) + i * 0.5
    for _ in range(6):
        pickle.loads(pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL))
    return time.perf_counter() - start


def dir_bytes(path: Path) -> int:
    """Bytes of the regular files under ``path`` (0 if absent)."""
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Output digest and fidelity ledger
# ----------------------------------------------------------------------
class _ColumnHash:
    """sha256 of one column fed chunk by chunk: numeric chunks hash their
    bytes (and the dtype, whenever it changes), others each value's repr."""

    def __init__(self) -> None:
        self.h = hashlib.sha256()
        self.dtype = None

    def update(self, values) -> None:
        import numpy as np

        values = np.asarray(values)
        if values.dtype != self.dtype:
            self.dtype = values.dtype
            self.h.update(b"\x1d" + values.dtype.str.encode())
        if values.dtype.kind in "biuf":
            self.h.update(np.ascontiguousarray(values).tobytes())
        else:
            for value in values.tolist():
                self.h.update(repr(value).encode() + b"\x1f")


def table_digest(table, sort_keys: tuple[str, ...]) -> str:
    """sha256 over a table's columns, independent of chunk boundaries.

    A materialized table is sorted by ``sort_keys`` first; a chunked
    one is read chunk by chunk in the order it streams (the sharded
    merge emits key order).
    """
    from repro.frame import ChunkedTable

    chunks = table.chunks() if isinstance(table, ChunkedTable) else [table.sort_by(*sort_keys)]
    columns: dict[str, _ColumnHash] = {}
    for chunk in chunks:
        for name in chunk.column_names:
            columns.setdefault(name, _ColumnHash()).update(chunk[name])
    top = hashlib.sha256()
    for name in sorted(columns):
        top.update(f"{name}={columns[name].h.hexdigest()}\n".encode())
    return top.hexdigest()


def dataset_digest(dataset) -> str:
    """sha256 over the three job tables."""
    h = hashlib.sha256()
    for name, keys in TABLE_KEYS.items():
        h.update(f"{name}:{table_digest(getattr(dataset, name), keys)}\n".encode())
    return h.hexdigest()


def figures_digest(results: dict) -> str:
    """sha256 over every figure's comparison values, in registry order."""
    h = hashlib.sha256()
    for figure_id, result in results.items():
        h.update(f"[{figure_id}]".encode())
        for c in result.comparisons:
            h.update(f"{c.name}\x1f{float(c.paper)!r}\x1f{float(c.measured)!r}\x1e".encode())
    return h.hexdigest()


def fidelity_ledger(results: dict) -> list[dict]:
    """Grade the figure results already held against ``validation.CHECKS``.

    Mirrors ``validate_dataset`` without running any figure again: a
    check whose figure did not run, or whose statistic the figure did
    not emit, is skipped.
    """
    from repro.validation import CHECKS, grade

    rows = []
    for check in CHECKS:
        result = results.get(check.figure_id)
        if result is None:
            continue
        try:
            comparison = result.get(check.name)
        except KeyError:
            continue
        ratio = comparison.ratio
        rows.append(
            {
                "figure": check.figure_id,
                "check": check.name,
                "paper": float(comparison.paper),
                "measured": float(comparison.measured),
                "ratio": ratio if math.isfinite(ratio) else None,
                "passed": bool(grade(check, comparison.paper, comparison.measured)),
            }
        )
    return rows


# ----------------------------------------------------------------------
# The timed part
# ----------------------------------------------------------------------
class Calls:
    """Benchmark-owned timers around each public call, with failure
    accounting: an exception is counted, reported, and the run goes on."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.attempted = 0
        self.errors: list[str] = []

    def call(self, name: str, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds[name] = time.perf_counter() - start

    def skip(self, names) -> None:
        """Count calls that could not run because their input failed."""
        for name in names:
            self.attempted += 1
            self.errors.append(f"{name}: skipped, its input failed")


def _load(cache, key):
    dataset = cache.load(key)
    if dataset is None:
        raise RuntimeError(f"cache entry {key} is missing or corrupt")
    return dataset


def _forced_failure(figure_id: str, dataset):
    raise RuntimeError(f"{figure_id} made to fail by --fail-figure")


def run_figures(calls: Calls, dataset, fail_figure: str | None = None) -> dict:
    from repro.figures.registry import all_figures, run_figure

    ids = all_figures()
    if dataset is None:
        calls.skip(f"figure:{fid}" for fid in ids)
        return {}
    results = {}
    for figure_id in ids:
        fn = _forced_failure if figure_id == fail_figure else run_figure
        result = calls.call(f"figure:{figure_id}", fn, figure_id, dataset)
        if result is not None:
            results[figure_id] = result
    return results


def observability(trace: bool):
    """The (tracer, metrics, recorder) triple for one iteration."""
    from repro.obs import (
        NULL_METRICS,
        NULL_RECORDER,
        NULL_TRACER,
        FlightRecorder,
        MetricsRegistry,
        Tracer,
    )

    if trace:
        return Tracer(), MetricsRegistry(), FlightRecorder()
    return NULL_TRACER, NULL_METRICS, NULL_RECORDER


def timed(
    workload: str,
    seed: int,
    scale: float,
    workdir: Path,
    trace: bool = False,
    grade: bool = False,
    fail_figure: str | None = None,
) -> dict:
    """Set up, run the timed calls once, and measure them."""
    import importlib

    for module in LAZY_MODULES:
        importlib.import_module(module)
    from repro.obs import runtime as obs_runtime
    from repro.pipeline import DatasetCache, Session, dataset_key

    config = workload_config(workload, seed, scale)
    tracer, metrics, recorder = observability(trace)
    obs = {"tracer": tracer, "metrics": metrics, "recorder": recorder}
    cache_dir = workdir / "cache"
    spill_dir = workdir / "spill"
    calls = Calls()
    session = None
    if workload == "cold_build":
        session = Session(config, workers=1, cache_dir=cache_dir, **obs)
    elif workload == "coupled_stream":
        session = Session(config, workers=PARTITIONS, interchange=interchange_config(), **obs)
    cache = DatasetCache(cache_dir)
    key = dataset_key(config, None)

    ready = time.monotonic()
    host_before = host_seconds()
    reset_peak_rss()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    with obs_runtime.use(tracer, metrics, recorder):
        results: dict = {}
        if workload == "cold_build":
            dataset = calls.call("dataset", session.dataset)
        elif workload == "warm_figures":
            dataset = calls.call("cache_load", _load, cache, key)
            results = run_figures(calls, dataset, fail_figure)
        else:
            dataset = calls.call("streaming_dataset", session.streaming_dataset, None, spill_dir)
            results = run_figures(calls, dataset, fail_figure)
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    peak = peak_rss_mb()
    host = (host_before + host_seconds()) / 2

    disk_root = spill_dir if workload == "coupled_stream" else cache_dir
    out = {
        "ready": ready,
        "wall_s": wall,
        "host_s": host,
        "cpu_s": cpu,
        "workers": session.workers if session is not None else 1,
        "peak_rss_mb": peak,
        "disk_mb": dir_bytes(disk_root) / 2**20,
        "attempted": calls.attempted,
        "errors": calls.errors,
        "calls": calls.seconds,
        "jobs": 0,
        "checks": [],
        "stages": {},
        "counters": {},
    }
    if dataset is not None:
        out["jobs"] = dataset.jobs.num_rows
        out["tables_digest"] = dataset_digest(dataset)
        out["checks"] = check_outputs(workload, dataset, cache, key)
    if grade and workload == "cold_build" and dataset is not None:
        # The timed part runs no figure; grade fidelity untimed.
        from repro.figures.registry import all_figures, run_figure

        results = {fid: run_figure(fid, dataset) for fid in all_figures()}
    if results:
        out["figures_digest"] = figures_digest(results)
        out["fidelity"] = fidelity_ledger(results)
    if session is not None:
        for record in session.stages:
            if record.depth == 0:
                seconds, rows = out["stages"].get(record.name, (0.0, 0))
                out["stages"][record.name] = (seconds + record.seconds, rows + record.rows)
    if trace:
        out["counters"] = layer_counters(metrics)
    return out


def check_outputs(workload: str, dataset, cache, key) -> list[str]:
    """Structural checks on the dataset a workload produced."""
    problems = []
    jobs, gpu_jobs = dataset.jobs.num_rows, dataset.gpu_jobs.num_rows
    if jobs == 0:
        problems.append("the jobs table is empty")
    if not 0 < gpu_jobs <= jobs:
        problems.append(f"{gpu_jobs} GPU jobs for {jobs} jobs")
    if dataset.per_gpu.num_rows < gpu_jobs:
        problems.append(f"{dataset.per_gpu.num_rows} per-GPU rows for {gpu_jobs} GPU jobs")
    if workload == "cold_build" and not cache.has(key):
        problems.append("the build left no cache entry")
    if workload == "coupled_stream" and not dataset.is_streaming:
        problems.append("the coupled build did not stream")
    return problems


def layer_counters(metrics) -> dict[str, float]:
    out = {}
    for name, metric in COUNTERS.items():
        out[name] = sum(inst.value for n, _, inst in metrics.samples("counter") if n == metric)
    for name, metric in GAUGES.items():
        out[name] = max(
            (inst.value for n, _, inst in metrics.samples("gauge") if n == metric), default=0.0
        )
    return out


def fill(workload: str, seed: int, scale: float, workdir: Path) -> dict:
    """Build the dataset and store it in the cache (warm set-up)."""
    from repro.obs import NULL_METRICS, NULL_RECORDER, NULL_TRACER
    from repro.pipeline import Session

    config = workload_config(workload, seed, scale)
    session = Session(
        config,
        workers=1,
        cache_dir=workdir / "cache",
        tracer=NULL_TRACER,
        metrics=NULL_METRICS,
        recorder=NULL_RECORDER,
    )
    return {"tables_digest": dataset_digest(session.dataset())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("fill", "timed"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grade", action="store_true", help="grade fidelity even without timed figures")
    parser.add_argument("--fail-figure", help="make this figure raise (tests failure accounting)")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.phase == "fill":
        out = fill(args.workload, args.seed, args.scale, args.workdir)
    else:
        out = timed(
            args.workload,
            args.seed,
            args.scale,
            args.workdir,
            bool(args.trace),
            args.grade,
            args.fail_figure,
        )
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
