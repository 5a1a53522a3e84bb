"""The island runner's two transports: forked hosts vs in-process.

:class:`~repro.slurm.interchange.PartitionedRunner` promises that
stepping islands on forked host processes (:mod:`repro.slurm.parallel`)
— exchanging only the bounded interchange payload — is
**bit-identical** to stepping them on the in-process host.  These
tests pin that contract event for event (fingerprints over every job
record), for migration coupling, fair-share coupling, and uncoupled
islands, plus the in-process fallback, the per-island setup/finish
hooks the sharded build relies on, observability parity, and a host
that dies.

Workloads are rebuilt fresh for every run: migration mutates request
``tags`` in place, so sharing one request list across runs would leak
state between the candidates.
"""

import dataclasses
import multiprocessing
import os
import time

import pytest

from repro.cluster.partition import PartitionLayout
from repro.errors import SchedulerError
from repro.obs import runtime
from repro.obs.events import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import Heartbeat, use_sink
from repro.obs.runtime import peak_rss_bytes
from repro.obs.trace import Tracer
from repro.pipeline.parallel import ParallelTaskError
from repro.slurm.interchange import (
    InterchangeConfig,
    PartitionedRunner,
    run_partitioned,
)
from repro.slurm.policies import FairSharePolicy
from repro.slurm.scheduler import SchedulerConfig
from tests.slurm.test_interchange import fingerprints, island_ledger, workload
from tests.slurm.test_job import make_request

MIGRATION = InterchangeConfig(epoch_s=1800.0, migrate_after_s=600.0)


def hot_island_requests():
    """Cohort 0 floods island 0; the rest sit idle (fresh every call)."""
    return [
        make_request(
            job_id=i,
            user=f"u{i % 3}",
            submit_time_s=0.0,
            runtime_s=7200.0,
            num_gpus=2,
            tags={"cohort": 0},
        )
        for i in range(24)
    ]


def serial_oracle(requests, num_partitions, total_nodes, *, config=None,
                  interchange=None, **kwargs):
    return parallel_run(
        requests, num_partitions, total_nodes,
        workers=1, config=config, interchange=interchange, **kwargs,
    )


def parallel_run(requests, num_partitions, total_nodes, *, workers, config=None,
                 interchange=None, **kwargs):
    runner = PartitionedRunner(
        PartitionLayout.even(total_nodes, num_partitions),
        config=config,
        interchange=interchange,
        workers=workers,
        **kwargs,
    )
    return runner.run(requests)


class TestMigrationCoupling:
    def test_parallel_matches_serial_event_for_event(self):
        serial = serial_oracle(
            hot_island_requests(), 2, 4, interchange=MIGRATION
        )
        parallel = parallel_run(
            hot_island_requests(), 2, 4, workers=2, interchange=MIGRATION
        )
        assert parallel.mode == "parallel"
        assert serial.migrations > 0
        assert parallel.migrations == serial.migrations
        assert fingerprints(parallel.merged_records()) == fingerprints(
            serial.merged_records()
        )

    def test_migrated_tags_cross_the_process_boundary(self):
        parallel = parallel_run(
            hot_island_requests(), 2, 4, workers=2, interchange=MIGRATION
        )
        migrated = [
            r for r in parallel.merged_records() if r.request.tags.get("migrated")
        ]
        assert len(migrated) == parallel.migrations > 0
        for record in migrated:
            target = parallel.layout[record.request.tags["migrated_to"]]
            for node in record.nodes:
                assert target.node_start <= node < target.node_stop

    def test_merged_result_counters_match(self):
        serial = serial_oracle(
            hot_island_requests(), 2, 4, interchange=MIGRATION
        )
        parallel = parallel_run(
            hot_island_requests(), 2, 4, workers=2, interchange=MIGRATION
        )
        assert parallel.merged().events_processed == serial.merged().events_processed
        assert parallel.merged().makespan_s == serial.merged().makespan_s


class TestFairShareCoupling:
    CONFIG = SchedulerConfig(policy="fair_share")
    SYNC = InterchangeConfig(epoch_s=3600.0, fair_share_sync=True)

    def test_parallel_matches_serial_event_for_event(self):
        serial = serial_oracle(
            workload(cohorts=2), 2, 16, config=self.CONFIG, interchange=self.SYNC
        )
        parallel = parallel_run(
            workload(cohorts=2), 2, 16,
            workers=2, config=self.CONFIG, interchange=self.SYNC,
        )
        assert parallel.mode == "parallel"
        assert fingerprints(parallel.merged_records()) == fingerprints(
            serial.merged_records()
        )

    def test_parent_ledger_matches_serial_global_usage(self):
        serial = serial_oracle(
            workload(cohorts=2), 2, 16,
            config=self.CONFIG, interchange=self.SYNC, island_finish=island_ledger,
        )
        parallel = parallel_run(
            workload(cohorts=2), 2, 16,
            workers=2, config=self.CONFIG, interchange=self.SYNC,
            island_finish=island_ledger,
        )
        # Every island ends holding the global ledger the parent pushed.
        for serial_ledger, parallel_ledger in zip(serial.extras, parallel.extras):
            assert serial_ledger
            assert parallel_ledger.keys() == serial_ledger.keys()
            for user, hours in serial_ledger.items():
                assert parallel_ledger[user] == pytest.approx(hours)


class TestUncoupledAndFallback:
    def test_uncoupled_parallel_matches_fanout(self):
        free = run_partitioned(workload(cohorts=4), 4, total_nodes=64)
        parallel = parallel_run(workload(cohorts=4), 4, 64, workers=4)
        assert parallel.mode == "parallel"
        assert fingerprints(parallel.merged_records()) == fingerprints(
            free.merged_records()
        )

    def test_workers_1_falls_back_to_serial_lockstep(self):
        fallback = parallel_run(
            hot_island_requests(), 2, 4, workers=1, interchange=MIGRATION
        )
        serial = serial_oracle(
            hot_island_requests(), 2, 4, interchange=MIGRATION
        )
        assert fallback.mode == "serial"
        # The in-process host reports its own (this process's) peak.
        assert 0.0 < fallback.island_peak_rss_bytes <= peak_rss_bytes()
        assert fallback.migrations == serial.migrations
        assert fingerprints(fallback.merged_records()) == fingerprints(
            serial.merged_records()
        )

    @pytest.mark.parametrize("failure", ["no_fork", "second_host_fails"])
    def test_hosts_that_cannot_start_fall_back_to_in_process(
        self, monkeypatch, failure
    ):
        if failure == "no_fork":
            def get_context(method=None):
                raise ValueError(method)

            monkeypatch.setattr(multiprocessing, "get_context", get_context)
        else:
            real_start = multiprocessing.context.ForkProcess.start
            started = []

            def start(process):
                if started:
                    raise OSError("cannot fork")
                started.append(process)
                real_start(process)

            monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
        result = parallel_run(
            hot_island_requests(), 2, 4, workers=2, interchange=MIGRATION
        )
        serial = serial_oracle(hot_island_requests(), 2, 4, interchange=MIGRATION)
        assert result.mode == "serial"
        assert fingerprints(result.merged_records()) == fingerprints(
            serial.merged_records()
        )
        assert multiprocessing.active_children() == []

    def test_single_island_falls_back_to_serial(self):
        result = parallel_run(workload(cohorts=1), 1, 8, workers=4)
        assert result.mode == "serial"
        assert len(result.merged_records()) == len(workload(cohorts=1))


class TestValidation:
    def test_failure_model_rejected(self):
        with pytest.raises(SchedulerError, match="failure"):
            PartitionedRunner(
                PartitionLayout.even(16, 2),
                config=SchedulerConfig(failure_model="weibull"),
            )

    def test_policy_objects_rejected(self):
        with pytest.raises(SchedulerError, match="registry name"):
            PartitionedRunner(
                PartitionLayout.even(16, 2),
                config=SchedulerConfig(policy=FairSharePolicy()),
            )

    def test_fair_share_sync_requires_fair_share_policy(self):
        with pytest.raises(SchedulerError, match="fair_share"):
            PartitionedRunner(
                PartitionLayout.even(16, 2),
                interchange=InterchangeConfig(fair_share_sync=True),
            )


# Island hooks, module level like the sharded build's.
def _setup_hook(simulator, partition, context):
    return {"island": partition.index, "salt": context.get("salt")}


def _finish_hook(simulator, state, result):
    return {
        "island": state["island"],
        "salt": state["salt"],
        "records": len(result.records),
    }


class TestIslandHooks:
    @pytest.mark.parametrize("workers,mode", [(2, "parallel"), (1, "serial")])
    def test_hooks_run_on_both_paths(self, workers, mode):
        result = parallel_run(
            hot_island_requests(), 2, 4,
            workers=workers,
            interchange=MIGRATION,
            island_setup=_setup_hook,
            island_finish=_finish_hook,
            island_context={"salt": 42},
        )
        assert result.mode == mode
        assert [extra["island"] for extra in result.extras] == [0, 1]
        assert all(extra["salt"] == 42 for extra in result.extras)
        assert sum(extra["records"] for extra in result.extras) == 24

    @pytest.mark.parametrize("workers", [2, 1])
    def test_return_records_false_keeps_records_out_of_parent(self, workers):
        result = parallel_run(
            hot_island_requests(), 2, 4,
            workers=workers,
            interchange=MIGRATION,
            island_finish=_finish_hook,
            island_setup=_setup_hook,
            return_records=False,
        )
        assert result.merged_records() == []
        # ... but the islands saw every record before the drop.
        assert sum(extra["records"] for extra in result.extras) == 24

    @pytest.mark.parametrize("workers,mode", [(2, "parallel"), (1, "serial")])
    def test_heartbeats_for_every_island_match_in_process(self, workers, mode):
        result, beats, _ = observed_run(workers)
        assert result.mode == mode
        assert {beat["island"] for beat in beats} == {0, 1}
        fields = {field.name for field in dataclasses.fields(Heartbeat)}
        assert all(set(beat) == fields for beat in beats)
        # The simulation-state fields agree with the in-process host,
        # heartbeat for heartbeat.
        _, reference, _ = observed_run(1)
        assert simulation_state(beats) == simulation_state(reference)

    @pytest.mark.parametrize("workers,mode", [(2, "parallel"), (1, "serial")])
    def test_one_epoch_event_per_island_per_epoch(self, workers, mode):
        result, beats, events = observed_run(workers)
        assert result.mode == mode
        epochs = max(event.attrs["epoch"] for event in events)
        assert epochs > 1
        for island in (0, 1):
            assert sorted(
                event.attrs["epoch"] for event in events if event.island == island
            ) == list(range(1, epochs + 1))
            assert sum(beat["island"] == island for beat in beats) == epochs
        _, _, reference = observed_run(1)
        assert len(events) == len(reference)


class _CollectingSink:
    """A progress sink keeping every heartbeat as a payload dict."""

    def __init__(self):
        self.beats = []

    def update(self, heartbeat):
        if isinstance(heartbeat, Heartbeat):
            heartbeat = heartbeat.to_payload()
        self.beats.append(heartbeat)


def observed_run(workers):
    """A coupled run watched by a progress sink and a flight recorder:
    ``(result, heartbeats, island.epoch events)``."""
    sink = _CollectingSink()
    recorder = FlightRecorder()
    with use_sink(sink), runtime.use(Tracer(), MetricsRegistry(), recorder):
        result = parallel_run(
            hot_island_requests(), 2, 4, workers=workers, interchange=MIGRATION
        )
    events = [event for event in recorder.events() if event.name == "island.epoch"]
    return result, sink.beats, events


def simulation_state(beats):
    keys = ("island", "epoch", "sim_time_s", "queue_depth", "running",
            "events", "dispatched")
    return sorted(tuple(beat[key] for key in keys) for beat in beats)


def _exit_in_host(simulator, partition, context):
    """Setup hook that kills the forked host of island ``context["dies"]``."""
    if partition.index == context["dies"] and os.getpid() != context["parent"]:
        os._exit(1)


class TestDeadHost:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="forked hosts need the fork start method",
    )
    # Two islands on two hosts; four on two hosts, where the host of
    # islands [1, 3] dies at island 3, its second (coupled and not).
    @pytest.mark.parametrize(
        "partitions,nodes,dies,interchange",
        [(2, 4, 1, MIGRATION), (4, 8, 3, MIGRATION), (4, 8, 3, None)],
        ids=["two_hosts", "second_island_of_host", "second_island_uncoupled"],
    )
    def test_dead_host_names_its_island_and_is_reaped(
        self, partitions, nodes, dies, interchange
    ):
        start = time.monotonic()
        with pytest.raises(ParallelTaskError, match=f"island {dies} failed") as excinfo:
            parallel_run(
                hot_island_requests(), partitions, nodes,
                workers=2,
                interchange=interchange,
                island_setup=_exit_in_host,
                island_context={"parent": os.getpid(), "dies": dies},
            )
        assert excinfo.value.index == dies
        assert "exit code 1" in str(excinfo.value)
        assert time.monotonic() - start < 10.0
        assert multiprocessing.active_children() == []
