"""Tests of the benchmark itself, at reduced scale.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import iteration  # noqa: E402
import run  # noqa: E402

#: Small enough for a quick test; the coupled workload still gets the
#: 16 nodes two islands need, so ``check_island_capacity`` passes.
SMOKE_SCALE = 0.005


def bench(*args: str, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result(*args: str) -> dict:
    code, lines = bench(*args, "--scale", str(SMOKE_SCALE), "--seconds", "1")
    assert code == 0
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    out = result("--workload", workload, "--seed", "3", "--trace", trace)
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in out["metrics"].values())


def test_layers_attribute_time_to_the_workload_that_runs_them():
    cold = result("--workload", "cold_build", "--seed", "5", "--trace", "1")["metrics"]
    warm = result("--workload", "warm_figures", "--seed", "5", "--trace", "1")["metrics"]
    stream = result("--workload", "coupled_stream", "--seed", "5", "--trace", "1")["metrics"]
    assert cold["figures.s"]["value"] == 0.0
    assert cold["workload.s"]["value"] > 0.0
    for name in ("workload.s", "slurm.schedule_s", "monitor.sampling_s", "slurm.events"):
        assert warm[name]["value"] == 0.0
    assert warm["pipeline.cache_load_s"]["value"] > 0.0
    assert stream["slurm.migrations"]["value"] > 0
    assert stream["frame.spill_bytes"]["value"] > 0


def test_a_failing_figure_is_counted_and_the_run_goes_on():
    out = result("--workload", "warm_figures", "--seed", "3", "--fail-figure", "fig13")
    per_iteration = 1 + len(run.FIGURE_IDS)  # cache load + every figure
    iterations = out["attempted"] // per_iteration
    assert out["attempted"] == iterations * per_iteration
    assert out["failed"] == iterations
    error_rate = out["failed"] / out["attempted"]
    assert error_rate == pytest.approx(1 / per_iteration)
    assert out["metrics"]["success_frac"]["value"] == pytest.approx(1 - error_rate)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "cold_build", "--seed", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_table_digest_ignores_chunk_boundaries():
    from repro.frame import Table

    table = Table({"job_id": [3, 1, 2, 4], "user": ["a", "b", "a", "c"], "x": [0.5, 1.5, 2.5, 3.5]})
    whole = iteration.table_digest(table, ("job_id",))
    chunked = table.sort_by("job_id").to_chunked(3)
    assert iteration.table_digest(chunked, ("job_id",)) == whole
    changed = table.with_column("x", [0.5, 1.5, 2.5, 3.25])
    assert iteration.table_digest(changed, ("job_id",)) != whole


def test_ledger_flags_a_changed_digest_on_the_same_host_only(tmp_path):
    ledger = run.Ledger(tmp_path / "ledger.jsonl")
    record = {"key": "w/0.02/7", "host_id": "h1", "source_sha": "s1", "tables_digest": "aa"}
    ledger.add(record)
    reread = run.Ledger(tmp_path / "ledger.jsonl")
    assert reread.check(record) == ([], 0)
    problems, _ = reread.check({**record, "tables_digest": "bb"})
    assert problems
    assert reread.check({**record, "host_id": "h2", "tables_digest": "bb"}) == ([], 1)


def test_end_to_end_times_are_given_at_the_reference_host_speed():
    here = {"wall_s": 2.0, "setup_s": 1.0, "jobs": 100, "peak_rss_mb": 50.0,
            "host_s": run.REFERENCE_HOST_S}
    # The same work on a host running at half speed: every time doubles.
    slower = {**here, "wall_s": 4.0, "setup_s": 2.0, "host_s": 2 * run.REFERENCE_HOST_S}
    for runs in ([here], [slower], [here, slower]):
        metrics = run.end_to_end(runs, 1, 0)
        assert metrics["wall_s"] == pytest.approx(2.0)
        assert metrics["setup_s"] == pytest.approx(1.0)
        assert metrics["jobs_per_s"] == pytest.approx(50.0)


def test_per_layer_metrics_cover_every_registered_figure():
    from repro.figures.registry import all_figures

    assert list(run.FIGURE_IDS) == all_figures()


def test_benchmark_json_lists_exactly_the_metrics_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
