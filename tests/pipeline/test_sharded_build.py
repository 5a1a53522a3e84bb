"""Tests for the partitioned (sharded) dataset build.

The acceptance contract of the sharding refactor, pinned end to end at
the session level:

* for a fixed partition count the build is **bit-for-bit identical**
  whether the islands run in this process or on forked hosts;
* ``partitions=1`` routes through the legacy serial code path, which
  does not depend on the worker count, and the sharded build at one
  partition holds the same rows, records and series;
* the merged dataset keeps the whole-machine shape (global node
  indices, one spec, job-id-ordered tables);
* the **streaming** build — islands spill to disk, the parent k-way
  merges chunk streams — yields the same tables chunk for chunk, for
  uncoupled islands and for interchange-coupled islands run serially
  or process-parallel.
"""

import numpy as np
import pytest

from repro.monitor.collector import MonitoringConfig
from repro.pipeline import Session
from repro.pipeline.shard import island_monitoring
from repro.slurm.interchange import InterchangeConfig
from repro.workload.generator import WorkloadConfig

# 3200 configured nodes at scale 0.02 -> 64 simulated nodes, so even a
# 4-way split leaves islands big enough for the largest (16-GPU) jobs.
SHARDED = dict(scale=0.02, seed=13, num_nodes=3200, partitions=4)
TABLE_KEYS = {
    "jobs": ("job_id",),
    "gpu_jobs": ("job_id",),
    "per_gpu": ("job_id", "gpu_index"),
}


def datasets_equal(a, b):
    assert a.jobs.to_dict() == b.jobs.to_dict()
    assert a.gpu_jobs.to_dict() == b.gpu_jobs.to_dict()
    assert a.per_gpu.to_dict() == b.per_gpu.to_dict()
    series_equal(a, b)


def record_set(records):
    """Every record's schedule, order-free."""
    return sorted(
        (r.request.job_id, r.start_time_s, r.end_time_s, r.nodes, r.exit_condition)
        for r in records
    )


def series_equal(a, b):
    assert len(a.timeseries) == len(b.timeseries)
    for series in a.timeseries:
        twin = b.timeseries.get(series.job_id, series.gpu_index)
        assert np.array_equal(series.times_s, twin.times_s)
        for name, values in series.metrics.items():
            assert np.array_equal(values, twin.metrics[name]), name


@pytest.fixture(scope="module")
def serial_session():
    session = Session(WorkloadConfig(**SHARDED), workers=1)
    session.dataset()
    return session


class TestBitIdentity:
    def test_parallel_build_matches_serial(self, serial_session):
        parallel = Session(WorkloadConfig(**SHARDED), workers=4).dataset()
        datasets_equal(serial_session.dataset(), parallel)

    def test_single_partition_ignores_worker_count(self):
        base = dict(SHARDED, partitions=1)
        serial = Session(WorkloadConfig(**base)).dataset()
        # The K=1 build must not depend on the worker count.
        pooled = Session(WorkloadConfig(**base), workers=2).dataset()
        datasets_equal(serial, pooled)

    def test_sharded_single_partition_matches_legacy(self):
        """``build_sharded_dataset`` at K=1 against the legacy inline build.

        Every table holds the same rows once sorted by key, the records
        and the series are the same.  Row order is the one difference:
        legacy tables are in completion order, sharded ones in job-id
        order.  It is the only thing that blocks routing K=1 through the
        sharded build.
        """
        from repro.pipeline.instrument import PipelineInstrumentation
        from repro.pipeline.session import _build_dataset
        from repro.pipeline.shard import build_sharded_dataset

        config = WorkloadConfig(**dict(SHARDED, partitions=1))
        legacy = _build_dataset(config, None, PipelineInstrumentation())
        sharded = build_sharded_dataset(config, None, PipelineInstrumentation())
        for name, keys in TABLE_KEYS.items():
            assert (
                getattr(sharded, name).sort_by(*keys).to_dict()
                == getattr(legacy, name).sort_by(*keys).to_dict()
            ), name
        assert record_set(sharded.records) == record_set(legacy.records)
        series_equal(legacy, sharded)


class TestMergedShape:
    def test_whole_machine_spec_and_global_nodes(self, serial_session):
        dataset = serial_session.dataset()
        assert dataset.spec.num_nodes == dataset.config.scaled_nodes
        assert "[partition" not in dataset.spec.name
        max_node = max(
            (node for record in dataset.records for node in record.nodes),
            default=0,
        )
        assert max_node < dataset.spec.num_nodes
        # records span more than one island's node range
        assert max_node >= dataset.spec.num_nodes // 4

    def test_records_in_job_id_order(self, serial_session):
        ids = [r.request.job_id for r in serial_session.dataset().records]
        assert ids == sorted(ids)

    def test_tables_sorted_for_process_independence(self, serial_session):
        dataset = serial_session.dataset()
        job_ids = np.asarray(dataset.gpu_jobs["job_id"])
        assert np.all(np.diff(job_ids) >= 0)

    def test_island_rss_gauge_recorded(self, serial_session):
        gauge = serial_session.metrics.gauge("repro_shard_island_peak_rss_bytes")
        assert gauge.value > 0

    def test_stage_names_unchanged(self, serial_session):
        from repro.pipeline import BUILD_STAGES

        assert tuple(serial_session.instrumentation.stage_names()) == BUILD_STAGES


class TestIslandCapacity:
    def test_oversized_job_fails_fast_with_remedy(self):
        from repro.cluster.partition import PartitionError, PartitionLayout
        from repro.cluster.spec import supercloud_spec
        from repro.pipeline.shard import check_island_capacity
        from tests.slurm.test_job import make_request

        layout = PartitionLayout.even(8, 4)  # 2-node (4-GPU) islands
        buckets = [[make_request(job_id=7, num_gpus=16)], [], [], []]
        with pytest.raises(PartitionError, match="fewer partitions"):
            check_island_capacity(layout, buckets, supercloud_spec(8))

    def test_fitting_jobs_pass(self):
        from repro.cluster.partition import PartitionLayout
        from repro.cluster.spec import supercloud_spec
        from repro.pipeline.shard import check_island_capacity
        from tests.slurm.test_job import make_request

        layout = PartitionLayout.even(8, 4)
        buckets = [[make_request(job_id=1, num_gpus=4)], [], [], []]
        check_island_capacity(layout, buckets, supercloud_spec(8))

    def test_cli_scale_too_small_for_partitions(self):
        # end to end: the session surfaces the actionable error instead
        # of a PlacementError from inside a pool worker
        from repro.cluster.partition import PartitionError

        session = Session(WorkloadConfig(scale=0.05, seed=20220214, partitions=2))
        with pytest.raises(PartitionError, match="fewer partitions"):
            session.dataset()


class TestIslandMonitoring:
    def test_single_partition_keeps_base_seed(self):
        base = MonitoringConfig(seed=99)
        assert island_monitoring(base, 0, 1) is base

    def test_islands_get_distinct_derived_seeds(self):
        base = MonitoringConfig(seed=99)
        seeds = {island_monitoring(base, i, 4).seed for i in range(4)}
        assert len(seeds) == 4
        assert island_monitoring(base, 2, 4).seed == island_monitoring(base, 2, 4).seed

    def test_default_config_when_none(self):
        derived = island_monitoring(None, 1, 2)
        assert derived.seed != MonitoringConfig().seed


class TestWorkerObservability:
    def test_pool_island_spans_adopted_into_session_trace(self):
        """A forked worker inherits an enabled tracer copy; its spans
        must still come home via drain/adopt, not die with the child."""
        session = Session(WorkloadConfig(**SHARDED), workers=4)
        session.dataset()
        payload = session.tracer.drain_payload()
        by_id = {span["id"]: span for span in payload}
        runs = [span for span in payload if span["name"] == "slurm.run"]
        # one simulator run per island, visible in the *session* trace
        assert len(runs) == 4
        for span in runs:
            # re-parented somewhere under the schedule stage span
            ancestors = set()
            parent = span["parent"]
            while parent in by_id:
                ancestors.add(by_id[parent]["name"])
                parent = by_id[parent]["parent"]
            assert "schedule" in ancestors

    def test_serial_island_spans_flow_inline(self):
        session = Session(WorkloadConfig(**SHARDED), workers=1)
        session.dataset()
        names = [span["name"] for span in session.tracer.drain_payload()]
        assert names.count("slurm.run") == 4


def streaming_equals_materialized(stream, exact):
    """Chunk-for-chunk equality against a materialized ground truth."""
    assert stream.is_streaming and not exact.is_streaming
    for name in ("jobs", "gpu_jobs", "per_gpu"):
        stream_table = getattr(stream, name)
        serial_table = getattr(exact, name)
        offset = 0
        for chunk in stream_table.chunks():
            assert tuple(chunk.column_names) == tuple(serial_table.column_names)
            for column in chunk.column_names:
                expected = np.asarray(serial_table[column])[
                    offset : offset + chunk.num_rows
                ]
                assert np.array_equal(
                    np.asarray(chunk[column]), expected
                ), (name, column)
            offset += chunk.num_rows
        assert offset == serial_table.num_rows, name
    assert len(stream.timeseries) == len(exact.timeseries)
    for series in exact.timeseries:
        twin = stream.timeseries.get(series.job_id, series.gpu_index)
        assert np.array_equal(series.times_s, twin.times_s)
        for metric, values in series.metrics.items():
            assert np.array_equal(values, twin.metrics[metric]), metric


class TestStreamingBuild:
    def test_streaming_build_matches_materialized(self, serial_session):
        stream = Session(WorkloadConfig(**SHARDED), workers=1).streaming_dataset(
            chunk_rows=512
        )
        streaming_equals_materialized(stream, serial_session.dataset())

    def test_streaming_dataset_is_memoized(self):
        session = Session(WorkloadConfig(**SHARDED), workers=1)
        first = session.streaming_dataset(chunk_rows=512)
        assert session.streaming_dataset() is first
        assert session.instrumentation.count("build") == 1

    def test_streaming_records_stay_out_of_the_parent(self):
        stream = Session(WorkloadConfig(**SHARDED), workers=1).streaming_dataset(
            chunk_rows=512
        )
        assert stream.records == []

    def test_materialize_roundtrip(self, serial_session):
        stream = Session(WorkloadConfig(**SHARDED), workers=1).streaming_dataset(
            chunk_rows=512
        )
        exact = serial_session.dataset()
        datasets_equal(stream.materialize(), exact)

    def test_single_partition_streaming_is_a_chunked_view(self):
        base = dict(SHARDED, partitions=1)
        session = Session(WorkloadConfig(**base))
        stream = session.streaming_dataset(chunk_rows=256)
        assert stream.is_streaming
        # The chunked view presents jobs in ascending job_id — the
        # order the sharded merge emits — not the completion order the
        # single-partition materialized table carries.
        assert (
            stream.jobs.materialize().to_dict()
            == session.dataset().jobs.sort_by("job_id").to_dict()
        )


class TestCoupledBuild:
    INTERCHANGE = InterchangeConfig(epoch_s=3600.0, migrate_after_s=900.0)

    @pytest.fixture(scope="class")
    def coupled_serial(self):
        session = Session(
            WorkloadConfig(**SHARDED), workers=1, interchange=self.INTERCHANGE
        )
        session.dataset()
        return session

    def test_coupling_changes_the_schedule(self, serial_session, coupled_serial):
        coupled = coupled_serial.dataset()
        uncoupled = serial_session.dataset()
        migrated = [
            r for r in coupled.records if r.request.tags.get("migrated")
        ]
        assert migrated, "interchange produced no migrations at this scale"
        assert coupled.jobs.to_dict() != uncoupled.jobs.to_dict()

    def test_parallel_coupled_matches_serial(self, coupled_serial):
        parallel = Session(
            WorkloadConfig(**SHARDED), workers=4, interchange=self.INTERCHANGE
        ).dataset()
        datasets_equal(coupled_serial.dataset(), parallel)

    def test_parallel_streaming_coupled_matches_serial(self, coupled_serial):
        stream = Session(
            WorkloadConfig(**SHARDED), workers=4, interchange=self.INTERCHANGE
        ).streaming_dataset(chunk_rows=512)
        streaming_equals_materialized(stream, coupled_serial.dataset())

    def test_interchange_extends_the_cache_key(self):
        from repro.pipeline.cache import dataset_key

        config = WorkloadConfig(**SHARDED)
        base = dataset_key(config, None)
        coupled = dataset_key(config, None, self.INTERCHANGE)
        assert base != coupled
        # None keeps the legacy payload: existing cache entries survive.
        assert base == dataset_key(config, None, None)


class TestSummary:
    def test_summary_reports_partition_layout(self, serial_session):
        text = serial_session.summary()
        assert "partitions: 4 (cohorts: 4)" in text

    def test_operator_summary_shows_islands(self, serial_session):
        from repro.reporting import operator_summary

        text = operator_summary(serial_session)
        assert "partition layout" in text
        assert "4 cluster islands" in text
        assert "island 0: nodes 0.." in text
