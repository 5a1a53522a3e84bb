#!/usr/bin/env python3
"""The repository's benchmark: three workloads through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload cold_build --seed 1 --seconds 38 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``cold_build``
    ``Session(workers=1, cache_dir=<fresh>).dataset()``: the build plus
    ``DatasetCache.store``.
``warm_figures``
    Set-up stores the dataset in a cache; the timed part is
    ``DatasetCache.load`` and ``run_figure`` for every registered figure.
``coupled_stream``
    Two interchange-coupled islands on two workers:
    ``Session.streaming_dataset(spill_dir=<fresh>)`` and every figure on
    the streaming dataset.

A run measures ``--seconds`` worth of datasets (a count fixed by
``--seconds`` alone), each built from a seed derived from ``--seed`` and
the dataset's index, each in a fresh interpreter (``iteration.py``).
Every metric is the per-dataset mean over the run, except ``setup_s``,
the median.  ``--trace 0`` prints the end-to-end metrics, measured
under the null observability triple; ``--trace 1`` pairs each
dataset's untraced iteration with a traced one and prints the
per-layer metrics.

Correctness: every dataset's job tables and figure comparisons are
hashed; a traced and an untraced iteration of one dataset, and a
dataset's digests across runs of the same source on the same host
(kept in ``.perfbench/ledger.jsonl``), must match exactly.  A mismatch
counts as a failed call.  Every timed call that raises is counted,
reported and skipped.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
ITERATION = HERE / "iteration.py"

WORKLOADS = ("cold_build", "warm_figures", "coupled_stream")

#: Scale of every dataset: 768 jobs of the paper scenario on 8 nodes.
SCALE = 0.01

#: Seconds one dataset takes on the reference host (2-CPU Xeon), all
#: set-up, host kernels and untimed grading included.  A run measures
#: ``--seconds / DATASET_SECONDS`` datasets, rounded, a count that
#: depends only on ``--seconds``, so runs with one seed measure the
#: same inputs.
DATASET_SECONDS = {"cold_build": 3.9, "warm_figures": 6.2, "coupled_stream": 8.1}
MIN_DATASETS = 2
#: No dataset starts that would, at the run's pace so far, end after
#: this many times ``--seconds`` (or after two minutes), so a slow host
#: shortens the run instead of overrunning it.
OVERRUN = 1.2
START_LIMIT_S = 120.0
#: ``cold_build`` runs no figure; its first datasets are graded untimed.
GRADED_DATASETS = 3
#: A fill or timed iteration taking longer than this is killed; with
#: ``START_LIMIT_S`` it keeps a hung iteration's run under three minutes.
ITERATION_TIMEOUT_S = 50.0

#: ``iteration.host_seconds()`` on the reference host (2-CPU Xeon).  The
#: end-to-end times are given at that host's speed (``host_speed``): on
#: a shared host raw times drift 15-30% between minutes, and scaled ones
#: still move with every change to the program, since the kernel uses
#: none of it.  Raw times are the per-layer ``raw.wall_s``/``raw.setup_s``.
REFERENCE_HOST_S = 0.145

#: A run whose datasets pass, on average, less than this share of
#: ``validation.CHECKS`` has incorrect output.
FIDELITY_FLOOR = 0.75

END_TO_END = {
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fidelity_pass_frac": "ratio",
    "success_frac": "ratio",
    "setup_s": "s",
}

#: Per-layer metrics read from one traced iteration's stage records.
STAGE_METRICS = {
    "workload.s": "workload",
    "slurm.schedule_s": "schedule",
    "monitor.sampling_s": "sampling",
    "monitor.s": "monitor",
    "pipeline.assemble_s": "assemble",
    "pipeline.cache_store_s": "cache_store",
}

#: Per-layer counters reported by ``iteration.layer_counters``.
COUNTER_METRICS = (
    "slurm.events",
    "slurm.dispatched",
    "slurm.peak_queue",
    "slurm.migrations",
    "monitor.sampling_tasks",
    "monitor.series_kept",
    "frame.spill_bytes",
    "frame.spill_raw_bytes",
    "frame.stream_chunks",
    "frame.stream_rows",
    "frame.kernel_calls",
    "frame.kernel_rows",
)

FIGURE_IDS = (
    "table1", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "queue_waits", "pareto", "ext_timeline", "ext_prediction", "ext_queueing",
)


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in STAGE_METRICS}
    units["workload.jobs"] = "count"
    units.update({name: "count" for name in COUNTER_METRICS})
    units["frame.spill_bytes"] = units["frame.spill_raw_bytes"] = "bytes"
    units.update(
        {
            "pipeline.cache_load_s": "s",
            "pipeline.parallel_cpu_util": "ratio",
            "disk_mb": "MB",
            "frame.spill_ratio": "ratio",
            "figures.s": "s",
            "shard.island_peak_rss_mb": "MB",
            "obs.overhead_frac": "ratio",
            "obs.attributed_frac": "ratio",
        }
    )
    units.update({f"figures.{fid}_s": "s" for fid in FIGURE_IDS})
    units.update({"host.kernel_s": "s", "raw.wall_s": "s", "raw.setup_s": "s"})
    return units


PER_LAYER = per_layer_units()


# ----------------------------------------------------------------------
# Host fingerprint and ledger
# ----------------------------------------------------------------------
def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str:
    """HEAD of the checkout, or ``none`` when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_sha() -> str:
    """sha256 over every file under ``src/`` and ``perfbench/``: the code
    measured and the code measuring it."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint() -> dict:
    """What must match for two results to be comparable."""
    import multiprocessing

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    host = {
        "logical_cpus": os.cpu_count() or 1,
        "usable_cpus": usable,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "fork": "fork" in multiprocessing.get_all_start_methods(),
    }
    host["host_id"] = hashlib.sha256(json.dumps(host, sort_keys=True).encode()).hexdigest()[:16]
    host["git_sha"] = _git_sha()
    host["source_sha"] = source_sha()[:16]
    return host


class Ledger:
    """Digests (and traced counts) of every dataset a run measured.

    A later run of the same source on a host with the same fingerprint
    must reproduce them exactly; entries from another host or another
    source are reported as not comparable and not checked.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.entries: list[dict] = []
        if path.is_file():
            for line in path.read_text().splitlines():
                try:
                    self.entries.append(json.loads(line))
                except json.JSONDecodeError:
                    continue

    def check(self, record: dict) -> tuple[list[str], int]:
        """Mismatches against comparable entries, and the number of
        entries skipped as not comparable."""
        problems, skipped = [], 0
        for entry in self.entries:
            if entry["key"] != record["key"]:
                continue
            if (entry["host_id"], entry["source_sha"]) != (record["host_id"], record["source_sha"]):
                skipped += 1
                continue
            for field in ("tables_digest", "figures_digest", "counts"):
                if field in entry and field in record and entry[field] != record[field]:
                    problems.append(f"{record['key']}: {field} differs from an earlier run")
        return problems, skipped

    def add(self, record: dict) -> None:
        if record not in self.entries:
            self.entries.append(record)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------
def dataset_seed(seed: int, index: int) -> int:
    """The workload seed of a run's ``index``-th dataset."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _child(args: list[str], workdir: Path) -> dict:
    """Run ``iteration.py`` in a fresh interpreter and parse its result.

    The child gets its own process group so a timeout also stops any
    pool worker it started.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    proc = subprocess.Popen(
        [sys.executable, str(ITERATION), *args, "--workdir", str(workdir)],
        stdout=subprocess.PIPE, cwd=str(ROOT), env=env, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"iteration {args} timed out after {ITERATION_TIMEOUT_S:.0f} s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # what is left of it, and stray workers
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"iteration {args} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RuntimeError(f"iteration {args} printed no result") from None


def iteration(workload: str, seed: int, scale: float, trace: bool, grade: bool,
              fail_figure: str | None, workdir: Path) -> dict:
    """One dataset through one workload; adds ``setup_s`` to the result."""
    common = ["--workload", workload, "--seed", str(seed), "--scale", repr(scale)]
    shutil.rmtree(workdir, ignore_errors=True)
    setup = 0.0
    expected = None
    if workload == "warm_figures":
        start = time.monotonic()
        expected = _child(["--phase", "fill", *common], workdir)["tables_digest"]
        setup += time.monotonic() - start
    args = ["--phase", "timed", *common, "--trace", str(int(trace))]
    if grade:
        args.append("--grade")
    if fail_figure:
        args += ["--fail-figure", fail_figure]
    spawned = time.monotonic()
    out = _child(args, workdir)
    out["setup_s"] = setup + out.pop("ready") - spawned
    if expected is not None and out.get("tables_digest") not in (None, expected):
        out["checks"].append("tables loaded from the cache differ from the tables stored")
    shutil.rmtree(workdir, ignore_errors=True)
    return out


def mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def host_speed(runs: list[dict]) -> float:
    """How much faster the reference host is than this one was during
    ``runs``: ``REFERENCE_HOST_S`` ÷ the mean kernel time around them.
    Averaged over the run, the kernel's own second-to-second noise
    cancels and the minute-to-minute drift it tracks remains."""
    return REFERENCE_HOST_S / mean(r["host_s"] for r in runs)


def end_to_end(runs: list[dict], attempted: int, failed: int) -> dict[str, float]:
    """Per-dataset means over the run's datasets (``setup_s``: the median),
    times at the reference host's speed."""
    speed = host_speed(runs)
    return {
        "wall_s": mean(r["wall_s"] for r in runs) * speed,
        "jobs_per_s": sum(r["jobs"] for r in runs) / (sum(r["wall_s"] for r in runs) * speed),
        "peak_rss_mb": mean(r["peak_rss_mb"] for r in runs),
        "fidelity_pass_frac": mean(r["fidelity_pass_frac"] for r in runs if "fidelity_pass_frac" in r),
        "success_frac": 1.0 - failed / attempted,
        "setup_s": float(statistics.median(r["setup_s"] for r in runs)) * speed,
    }


def layers(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: per-dataset means over the traced iterations."""

    def per_run(r: dict) -> dict[str, float]:
        stages, calls, counts = r["stages"], r["calls"], r["counters"]
        out = {name: stages.get(stage, [0.0, 0])[0] for name, stage in STAGE_METRICS.items()}
        out["workload.jobs"] = stages.get("workload", [0.0, 0])[1]
        out.update({name: counts.get(name, 0.0) for name in COUNTER_METRICS})
        out["pipeline.cache_load_s"] = calls.get("cache_load", 0.0)
        out["pipeline.parallel_cpu_util"] = r["cpu_s"] / (r["wall_s"] * r["workers"])
        out["disk_mb"] = r["disk_mb"]
        spilled = counts.get("frame.spill_bytes", 0.0)
        out["frame.spill_ratio"] = counts.get("frame.spill_raw_bytes", 0.0) / spilled if spilled else 0.0
        figures = {fid: calls.get(f"figure:{fid}", 0.0) for fid in FIGURE_IDS}
        out["figures.s"] = sum(figures.values())
        out.update({f"figures.{fid}_s": s for fid, s in figures.items()})
        out["shard.island_peak_rss_mb"] = counts.get("shard.island_peak_rss_bytes", 0.0) / 2**20
        attributed = sum(s for s, _ in stages.values()) + out["pipeline.cache_load_s"] + out["figures.s"]
        out["obs.attributed_frac"] = attributed / r["wall_s"]
        return out

    rows = [per_run(r) for r in traced]
    metrics = {name: mean(row[name] for row in rows) for name in rows[0]}
    metrics["obs.overhead_frac"] = (
        mean(r["wall_s"] for r in traced) * host_speed(traced)
        / (mean(r["wall_s"] for r in untraced) * host_speed(untraced)) - 1.0
    )
    metrics["host.kernel_s"] = mean(r["host_s"] for r in untraced)
    metrics["raw.wall_s"] = mean(r["wall_s"] for r in untraced)
    metrics["raw.setup_s"] = float(statistics.median(r["setup_s"] for r in untraced))
    return metrics


class Run:
    """The datasets one benchmark run measured, and what went wrong."""

    def __init__(self, args, host: dict) -> None:
        self.args = args
        self.host = host
        self.standard = args.scale == SCALE and not args.fail_figure
        self.ledger = Ledger(STATE / "ledger.jsonl")
        self.workdir = STATE / "work" / f"{args.workload}-{os.getpid()}"
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.problems: list[str] = []
        self.attempted = self.failed = self.not_comparable = 0
        self.fidelity_rows: list[dict] = []

    def measure(self, index: int) -> None:
        """Run the workload on the run's ``index``-th dataset, untraced and,
        with ``--trace 1``, traced; check and record its digests."""
        args = self.args
        seed = dataset_seed(args.seed, index)
        outs = []
        # Traced runs alternate which iteration goes first, so order
        # effects cancel in ``obs.overhead_frac``.
        modes = ((False, True) if index % 2 == 0 else (True, False)) if args.trace else (False,)
        for trace in modes:
            grade = not trace and index < GRADED_DATASETS
            try:
                out = iteration(args.workload, seed, args.scale, trace, grade, args.fail_figure, self.workdir)
            except RuntimeError as exc:
                # The interpreter itself failed (crash, timeout): count it
                # as one failed call and go on to the next dataset.
                print(f"error: dataset {seed}: {exc}", file=sys.stderr)
                self.problems.append(f"dataset {seed}: {exc}")
                self.attempted += 1
                self.failed += 1
                return
            (self.traced if trace else self.untraced).append(out)
            outs.append(out)
            self.attempted += out["attempted"]
            self.failed += len(out["errors"])
            self.problems += [f"dataset {seed}: {p}" for p in out["checks"]]
            for error in out["errors"]:
                print(f"error: dataset {seed}: {error}", file=sys.stderr)
            if "fidelity" in out:
                rows = out.pop("fidelity")
                out["fidelity_pass_frac"] = sum(r["passed"] for r in rows) / len(rows)
                if not trace:
                    self.fidelity_rows += [{"dataset": seed, **r} for r in rows]
        untraced = self.untraced[-1]
        for field in ("tables_digest", "figures_digest"):
            if len({o[field] for o in outs if field in o}) > 1:
                self.problems.append(f"dataset {seed}: {field} differs between traced and untraced")
                self.failed += 1
        record = {
            "key": f"{args.workload}/{args.scale!r}/{seed}",
            "host_id": self.host["host_id"],
            "source_sha": self.host["source_sha"],
            **{f: untraced[f] for f in ("tables_digest", "figures_digest") if f in untraced},
        }
        if args.trace:
            record["counts"] = {k: v for k, v in self.traced[-1]["counters"].items() if "rss" not in k}
        if self.standard:
            mismatches, not_comparable = self.ledger.check(record)
            self.not_comparable += not_comparable
            self.problems += mismatches
            self.failed += len(mismatches)
            if not any(o["errors"] or o["checks"] for o in outs):
                self.ledger.add(record)
        print(f"dataset {seed}: wall {untraced['wall_s']:.4f} s, "
              f"host kernel {untraced['host_s']:.4f} s, disk {untraced['disk_mb']:.3f} MB, "
              f"peak {untraced['peak_rss_mb']:.1f} MB, tables {record.get('tables_digest', '-')[:16]}, "
              f"figures {record.get('figures_digest', '-')[:16]}")


def run(args) -> dict | None:
    host = fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale:g} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    bench = Run(args, host)
    per_dataset = DATASET_SECONDS[args.workload] * (2 if args.trace else 1)
    planned = max(MIN_DATASETS, round(args.seconds / per_dataset))
    start = time.monotonic()
    took: list[float] = []
    try:
        for index in range(planned):
            elapsed = time.monotonic() - start
            # The pace of the datasets measured so far, leaving out the
            # graded ones (slower on ``cold_build``) once others exist.
            pace = mean(took[GRADED_DATASETS:] or took)
            if index >= MIN_DATASETS and elapsed + pace > min(OVERRUN * args.seconds, START_LIMIT_S):
                print(f"time limit: measured {index} of {planned} datasets", file=sys.stderr)
                break
            bench.measure(index)
            took.append(time.monotonic() - start - elapsed)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)

    untraced, traced, problems = bench.untraced, bench.traced, bench.problems
    attempted, failed = bench.attempted, bench.failed
    if not untraced or (args.trace and not traced):
        print("perfbench: no dataset was measured", file=sys.stderr)
        return None
    if bench.not_comparable:
        print(f"ledger: {bench.not_comparable} earlier results from another host or source: "
              "not comparable")
    rows = bench.fidelity_rows
    if rows:
        graded = len({r["dataset"] for r in rows})
        print(f"fidelity: {sum(r['passed'] for r in rows)}/{len(rows)} checks passed "
              f"over {graded} datasets")
        failures: dict[tuple, list[float]] = {}
        for row in rows:
            if not row["passed"]:
                failures.setdefault((row["figure"], row["check"]), []).append(row["ratio"])
        for (figure, check), ratios in sorted(failures.items()):
            shown = ", ".join("n/a" if r is None else f"{r:.3g}" for r in ratios)
            print(f"fidelity: {figure} {check!r} failed on {len(ratios)}/{graded} datasets "
                  f"(measured/paper {shown})")
    fidelity = mean(r["fidelity_pass_frac"] for r in untraced if "fidelity_pass_frac" in r)
    if bench.standard and fidelity < FIDELITY_FLOOR:
        problems.append(f"fidelity {fidelity:.3f} is below the floor {FIDELITY_FLOOR}")
    print(f"iterations: {len(untraced)} untraced, {len(traced)} traced; "
          f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    if args.trace:
        metrics, units = layers(traced, untraced), PER_LAYER
    else:
        metrics, units = end_to_end(untraced, attempted, failed), END_TO_END
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if bench.standard:
        STATE.mkdir(parents=True, exist_ok=True)
        with (STATE / "results.jsonl").open("a") as fh:
            fh.write(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "fidelity": rows, **result}) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=20220214)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=SCALE, help=argparse.SUPPRESS)
    parser.add_argument("--fail-figure", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Let a termination request unwind through the ``finally`` blocks, so
    # the iteration in flight and its workers are stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    result = run(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
