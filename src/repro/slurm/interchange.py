"""Cross-partition interchange: bounded-lag coupling of cluster islands.

A partitioned run (see :mod:`repro.cluster.partition` and
``docs/scaling.md``) gives each island its own
:class:`~repro.slurm.scheduler.SlurmSimulator` event loop.  Islands
are stepped in lockstep **epochs**: every island advances to the same
time boundary, then an interchange step exchanges cross-partition
state before the next epoch starts.  Two couplings are supported:

* **global fair-share** — each island's
  :class:`~repro.slurm.policies.FairSharePolicy` drains the GPU hours
  its users consumed during the epoch; the deltas are merged into one
  global ledger that is pushed back to every island, so priority
  decisions lag global reality by at most one epoch;
* **migration / spillover** — jobs queued longer than
  ``migrate_after_s`` are moved (once) to the least-loaded island that
  can ever place them, resubmitted at the epoch boundary.

With both couplings off (the default) islands are independent and run
one advance-to-completion round.  One :class:`PartitionedRunner`
drives every case: it writes the epoch protocol once and runs it over
an in-process host or over forked host processes
(:mod:`repro.slurm.parallel`) that exchange only the bounded
interchange payload — bit for bit the same records either way
(``tests/slurm/test_interchange.py`` and
``tests/slurm/test_parallel_interchange.py`` pin both).

This module is about *simulation structure*; the similarly named
:mod:`repro.interchange` maps datasets onto the public MIT Supercloud
CSV layout and is unrelated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.cluster.partition import Partition, PartitionLayout
from repro.cluster.spec import ClusterSpec, supercloud_spec
from repro.errors import PlacementError, SchedulerError
from repro.slurm.job import JobRecord, JobRequest
from repro.slurm.policies import FairSharePolicy
from repro.slurm.scheduler import SchedulerConfig, SimulationResult, SlurmSimulator


@dataclass(frozen=True)
class InterchangeConfig:
    """How (and how often) islands exchange state."""

    #: Lockstep epoch length; cross-partition state lags by at most this.
    epoch_s: float = 6 * 3600.0
    #: Migrate queued jobs waiting longer than this to a less-loaded
    #: island (None disables migration).
    migrate_after_s: float | None = None
    #: Synchronise fair-share ledgers globally at epoch boundaries
    #: (requires ``SchedulerConfig(policy="fair_share")``).
    fair_share_sync: bool = False

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise SchedulerError(f"epoch_s must be positive, got {self.epoch_s}")
        if self.migrate_after_s is not None and self.migrate_after_s < 0:
            raise SchedulerError(
                f"migrate_after_s must be >= 0, got {self.migrate_after_s}"
            )

    @property
    def coupled(self) -> bool:
        """True when islands exchange state and must run in lockstep."""
        return self.fair_share_sync or self.migrate_after_s is not None


def route_requests(
    requests: list[JobRequest], num_partitions: int
) -> list[list[JobRequest]]:
    """Split requests into per-island buckets by cohort.

    Jobs carry their cohort in ``tags["cohort"]`` (set by the workload
    generator); a job without one falls back to ``job_id`` so
    hand-built request lists still route deterministically.
    """
    buckets: list[list[JobRequest]] = [[] for _ in range(num_partitions)]
    for request in requests:
        cohort = request.tags.get("cohort", request.job_id)
        buckets[int(cohort) % num_partitions].append(request)
    return buckets


def migration_candidates(
    queued: "Iterable[JobRequest]", boundary: float, threshold: float
) -> list[JobRequest]:
    """Jobs overdue for migration at this boundary, in job-id order.

    A job is overdue once it has queued longer than ``threshold`` and
    has not migrated before (no ping-pong).
    """
    return sorted(
        (
            request
            for request in queued
            if boundary - request.submit_time_s > threshold
            and not request.tags.get("migrated")
        ),
        key=lambda request: request.job_id,
    )


def plan_migrations(
    candidates: Sequence[Sequence[JobRequest]],
    queue_lengths: Sequence[int],
    island_specs: Sequence[ClusterSpec],
) -> list[tuple[int, JobRequest, int]]:
    """Deterministic migration plan over per-island candidate lists.

    Pure function of the epoch snapshot — per-island overdue candidates
    (already job-id sorted, see :func:`migration_candidates`), queue
    lengths, and static island specs — so the plan is the same whichever
    transport reported the snapshot.  Returns ``(source, request,
    target)`` moves in application order.

    The scan is deterministic: islands in index order, candidates
    in job-id order, target = least-loaded feasible island strictly
    less loaded than the source (ties to the lower index).  Moving a
    job decrements only the source's load — the target receives it as
    a scheduled resubmission, not a queue entry, so target loads stay
    at their snapshot values until that target is itself the source.
    """
    from repro.slurm.placement import check_spec_feasible

    loads = list(queue_lengths)
    moves: list[tuple[int, JobRequest, int]] = []
    for source_index, overdue in enumerate(candidates):
        for request in overdue:
            source_load = loads[source_index]
            best: tuple[int, int] | None = None
            for index, spec in enumerate(island_specs):
                if index == source_index:
                    continue
                try:
                    check_spec_feasible(spec, request)
                except PlacementError:
                    continue
                load = loads[index]
                if load >= source_load:
                    continue
                if best is None or (load, index) < best:
                    best = (load, index)
            if best is None:
                continue
            moves.append((source_index, request, best[1]))
            loads[source_index] -= 1
    return moves


#: Attach per-island state (e.g. a monitoring collector) before ``begin``.
IslandSetup = Callable[[SlurmSimulator, Partition, dict], Any]
#: Produce the island's payload after ``finalize`` (tables, spill handles).
IslandFinish = Callable[[SlurmSimulator, Any, SimulationResult], Any]


@dataclass
class PartitionedResult:
    """Per-island results plus the deterministic global merge."""

    layout: PartitionLayout
    results: list[SimulationResult]
    interchange: InterchangeConfig
    migrations: int = 0
    #: ``island_finish`` return values, one per island (None without a hook).
    extras: list = field(default_factory=list)
    #: Which transport ran: ``"serial"`` (in-process) or ``"parallel"`` (forked).
    mode: str = "serial"
    #: Largest peak RSS of any island host; the in-process host is the
    #: caller's own process.
    island_peak_rss_bytes: float = 0.0

    def merged_records(self) -> list[JobRecord]:
        """All job records in global job-id order (node indices global)."""
        records = [record for result in self.results for record in result.records]
        records.sort(key=lambda record: record.request.job_id)
        return records

    def merged(self) -> SimulationResult:
        """One whole-machine-shaped result for downstream consumers."""
        return SimulationResult(
            records=self.merged_records(),
            makespan_s=max(result.makespan_s for result in self.results),
            events_processed=sum(r.events_processed for r in self.results),
            peak_queue_length=max(r.peak_queue_length for r in self.results),
            config=self.results[0].config,
            node_failures=sum(r.node_failures for r in self.results),
            jobs_killed_by_failures=sum(
                r.jobs_killed_by_failures for r in self.results
            ),
        )


class _Island:
    """One island as a host holds it: simulator, hook state, observability.

    Both transports step islands through these methods only, so the
    island half of the epoch protocol exists once.  On the in-process
    host an island records into the caller's ambient observability; on
    a forked host it owns a fresh tracer / registry / recorder triple,
    which its payload carries home for the parent to :func:`_adopt`.
    The simulator is built at ``begin`` (or ``run``) and dropped once
    the payload is built, so a host keeps an island's run state only
    while that island runs.
    """

    def __init__(self, runner, partition: Partition, requests, *, own_obs, beat):
        from repro.obs import runtime

        self.runner = runner
        self.partition = partition
        self.index = partition.index
        self.requests = requests
        #: Heartbeat consumer (``None`` when no progress sink watches).
        self.beat = beat
        self.epoch = 0
        self.own_obs = own_obs
        if own_obs:
            from repro.obs.events import FlightRecorder
            from repro.obs.metrics import MetricsRegistry
            from repro.obs.trace import Tracer

            tracer = Tracer(process_name=f"repro-island-{self.index}")
            recorder = FlightRecorder(island=self.index)
            tracer.listener = recorder.span_closed
            self.obs = (tracer, MetricsRegistry(), recorder)
        else:
            self.obs = (
                runtime.get_tracer(), runtime.get_metrics(), runtime.get_recorder()
            )

    def _setup(self) -> None:
        runner = self.runner
        self.simulator = SlurmSimulator(self.partition.spec(runner.spec), runner.config)
        setup = runner.island_setup
        self.state = (
            setup(self.simulator, self.partition, runner.island_context)
            if setup is not None
            else None
        )

    def begin(self) -> bool:
        """Set up and submit every job; report whether events are pending."""
        from repro.obs import runtime

        with runtime.use(*self.obs):
            self._setup()
            self.simulator.begin(self.requests)
        return bool(self.simulator.loop)

    def run(self) -> dict:
        """An uncoupled island: set up, run to completion, finalize."""
        from repro.obs import runtime

        with runtime.use(*self.obs):
            self._setup()
            result = self.simulator.run(self.requests)
            self._epoch_done()
        return self._payload(result)

    def advance(self, boundary: float, want_usage: bool, threshold):
        """Step to ``boundary``; report the fair-share delta, migration
        candidates and queue length."""
        from repro.obs import runtime

        simulator = self.simulator
        with runtime.use(*self.obs):
            simulator.advance(until=boundary)
            self._epoch_done()
        usage = simulator._policy.drain_usage() if want_usage else None
        candidates = (
            migration_candidates(simulator.queue.scan(), boundary, threshold)
            if threshold is not None
            else None
        )
        return usage, candidates, len(simulator.queue)

    def _epoch_done(self) -> None:
        """Record the ``island.epoch`` event and send a heartbeat."""
        from repro.obs import runtime

        simulator = self.simulator
        self.epoch += 1
        runtime.record_event(
            "island.epoch",
            category="interchange",
            island=self.index,
            epoch=self.epoch,
            sim_time_s=float(simulator.loop.now),
            queue_depth=len(simulator.queue),
        )
        if self.beat is not None:
            self.beat(self._heartbeat())

    def _heartbeat(self):
        """This island's live state for the progress sink."""
        from repro.obs.progress import Heartbeat
        from repro.obs.runtime import get_metrics, peak_rss_bytes

        metrics = get_metrics()
        spill = 0.0
        if metrics.enabled:
            spill = sum(
                (
                    counter.value
                    for name, _labels, counter in metrics.samples("counter")
                    if name == "repro_frame_spill_bytes_total"
                ),
                0.0,
            )
        simulator = self.simulator
        return Heartbeat(
            island=self.index,
            epoch=self.epoch,
            sim_time_s=float(simulator.loop.now),
            queue_depth=len(simulator.queue),
            running=len(simulator._running),
            events=simulator.loop.processed,
            dispatched=len(simulator.records),
            peak_rss_bytes=peak_rss_bytes(),
            spill_bytes=spill,
        )

    def exchange(self, ledger, remove_ids, incoming, boundary: float) -> bool:
        """Apply the merged ledger and the planned moves; report pending.

        Pending is read *after* the moves: an incoming migration revives
        a drained island.
        """
        simulator = self.simulator
        if ledger is not None:
            simulator._policy.set_usage(ledger)
        for job_id in remove_ids:
            simulator.queue.remove(job_id)
        for request in incoming:
            simulator.loop.schedule(boundary, "submit", request)
        return bool(simulator.loop)

    def finalize(self) -> dict:
        """Finish the lockstep run; the island's payload for the parent."""
        from repro.obs import runtime

        with runtime.use(*self.obs):
            result = self.simulator.finalize()
        return self._payload(result)

    def _payload(self, result: SimulationResult) -> dict:
        from repro.obs import runtime

        runner = self.runner
        with runtime.use(*self.obs):
            _remap_nodes(result.records, self.partition.node_start)
            extra = (
                runner.island_finish(self.simulator, self.state, result)
                if runner.island_finish is not None
                else None
            )
        # The payload holds all the parent needs: free the run state.
        self.simulator = self.state = None
        if not runner.return_records:
            result = dataclasses.replace(result, records=[])
        tracer, metrics, recorder = self.obs
        return {
            "result": result,
            "extra": extra,
            "peak_rss_bytes": runtime.peak_rss_bytes(),
            "obs": (
                (tracer.drain_payload(), metrics.drain(), recorder.drain_payload())
                if self.own_obs
                else None
            ),
        }


def _adopt(obs) -> None:
    """Merge a forked island's drained observability into the ambient
    triple: spans re-parented under the current span, metrics and
    flight-recorder events merged."""
    from repro.obs import runtime

    spans, snapshot, events = obs
    tracer = runtime.get_tracer()
    if spans:
        tracer.adopt(spans, parent=tracer.current_span_id())
    metrics = runtime.get_metrics()
    if snapshot and metrics.enabled:
        metrics.merge(snapshot)
    recorder = runtime.get_recorder()
    if events and recorder.enabled:
        recorder.adopt(events)


class _IslandHost:
    """The islands one host holds, stepped on the runner's commands.

    Both transports serve commands through :meth:`step`, one island
    after another, so at most one island is mid-step on a host.  It is
    the in-process transport as it stands: ``send`` runs a command at
    once and ``recv`` hands back its replies, with island exceptions
    propagating unwrapped, tracebacks intact.  A forked host process
    (:mod:`repro.slurm.parallel`) serves one from its pipe and passes a
    shared ``current`` slot, where :meth:`step` writes the index of the
    island at work so a failure can name it.
    """

    mode = "serial"

    def __init__(self, runner, assignments, *, own_obs=False, beat=None,
                 current=None) -> None:
        self.islands = [
            _Island(runner, part, bucket, own_obs=own_obs, beat=beat)
            for part, bucket in assignments
        ]
        self.current = current

    def step(self, command: str, args: list) -> list:
        replies = []
        for island, arg in zip(self.islands, args):
            if self.current is not None:
                self.current.value = island.index
            replies.append(getattr(island, command)(*arg))
        return replies

    def send(self, command: str, args: list) -> None:
        self.replies = self.step(command, args)

    def recv(self) -> list:
        return self.replies

    def close(self, wait: bool = True) -> None:
        """Nothing to reap: the islands live in this process."""


class PartitionedRunner:
    """Run one simulator per island through the interchange epoch protocol.

    :meth:`run` writes the protocol once — begin, then per epoch
    advance to the boundary, merge the fair-share ledger and plan
    migrations, exchange, ack; finalize at the end — and runs it over
    one of two transports.  Islands go to ``min(workers, islands)``
    hosts, island ``i`` on host ``i % hosts``: one host is the
    in-process transport (also taken when the platform cannot fork),
    more are forked processes (:mod:`repro.slurm.parallel`).  Uncoupled
    islands run one advance-to-completion round.  Job records come back
    with **global** node indices, the same whichever transport ran:

    >>> from repro.slurm.job import JobRequest
    >>> def jobs():  # eight 2-GPU jobs, all routed to island 0
    ...     return [JobRequest(job_id=i, user=f"u{i % 3}", submit_time_s=0.0,
    ...                        runtime_s=7200.0, num_gpus=2, cores=4,
    ...                        memory_gb=16.0, tags={"cohort": 0})
    ...             for i in range(8)]
    >>> coupled = InterchangeConfig(epoch_s=1800.0, migrate_after_s=600.0)
    >>> one, two = (
    ...     PartitionedRunner(PartitionLayout.even(4, 2), interchange=coupled,
    ...                       workers=workers).run(jobs())
    ...     for workers in (1, 2)
    ... )
    >>> one.migrations == two.migrations > 0
    True
    >>> one.merged_records() == two.merged_records()
    True

    ``island_setup`` runs on the island's host before ``begin`` (the
    sharded build attaches a partition-local monitoring collector
    there); ``island_finish`` runs after ``finalize`` and returns the
    island's payload, which must pickle — spill-directory handles in
    the streaming build, materialized tables otherwise.
    ``island_context`` is handed to every setup call.
    ``return_records=False`` keeps job records out of the parent, so
    its memory stays bounded by the interchange payload.
    """

    def __init__(
        self,
        layout: PartitionLayout,
        *,
        spec: ClusterSpec | None = None,
        config: SchedulerConfig | None = None,
        interchange: InterchangeConfig | None = None,
        workers: int | None = None,
        island_setup: IslandSetup | None = None,
        island_finish: IslandFinish | None = None,
        island_context: dict | None = None,
        return_records: bool = True,
    ) -> None:
        # Imported lazily: repro.pipeline pulls the monitoring stack in,
        # which imports repro.slurm — a cycle at module-import time.
        from repro.pipeline.parallel import resolve_workers
        from repro.slurm.policies import make_policy

        self.layout = layout
        self.spec = spec if spec is not None else supercloud_spec(layout.total_nodes)
        self.config = config if config is not None else SchedulerConfig()
        self.interchange = (
            interchange if interchange is not None else InterchangeConfig()
        )
        self.workers = resolve_workers(workers)
        self.island_setup = island_setup
        self.island_finish = island_finish
        self.island_context = island_context if island_context is not None else {}
        self.return_records = return_records
        policy = self.config.policy
        if len(layout) > 1:
            if self.config.failure_model is not None:
                raise SchedulerError(
                    "failure injection is not supported in partitioned runs "
                    "(per-island failure streams would be correlated)"
                )
            if policy is not None and not isinstance(policy, str):
                raise SchedulerError(
                    "partitioned runs need a policy registry name (each island "
                    "builds its own instance); got a policy object"
                )
        if self.interchange.fair_share_sync:
            if isinstance(policy, str):
                policy = make_policy(policy)
            if not isinstance(policy, FairSharePolicy):
                raise SchedulerError(
                    'fair_share_sync requires SchedulerConfig(policy="fair_share")'
                )

    def _start_hosts(self, assignments: list, sink) -> list:
        count = min(self.workers, len(assignments))
        if count > 1:
            from repro.slurm.parallel import start_forked_hosts

            hosts = start_forked_hosts(self, assignments, count, sink)
            if hosts is not None:
                return hosts
        beat = sink.update if sink is not None else None
        return [_IslandHost(self, assignments, beat=beat)]

    def run(self, requests: list[JobRequest]) -> PartitionedResult:
        """Simulate all requests across the islands to completion."""
        from repro.obs.progress import get_sink

        buckets = route_requests(requests, len(self.layout))
        hosts = self._start_hosts(list(zip(self.layout, buckets)), get_sink())
        count = len(hosts)
        islands = len(self.layout)

        def step(command: str, args: list) -> list:
            for index, host in enumerate(hosts):
                host.send(command, args[index::count])
            replies: list = [None] * islands
            for index, host in enumerate(hosts):
                replies[index::count] = host.recv()
            return replies

        finished = False
        try:
            if self.interchange.coupled:
                payloads, migrations = self._lockstep(step, islands)
            else:
                # Independent islands: one advance-to-completion round.
                payloads, migrations = step("run", [()] * islands), 0
            finished = True
        finally:
            for host in hosts:
                host.close(wait=finished)

        for payload in payloads:
            if payload["obs"] is not None:
                _adopt(payload["obs"])
        return PartitionedResult(
            layout=self.layout,
            results=[payload["result"] for payload in payloads],
            interchange=self.interchange,
            migrations=migrations,
            extras=[payload["extra"] for payload in payloads],
            mode=hosts[0].mode,
            island_peak_rss_bytes=max(
                payload["peak_rss_bytes"] for payload in payloads
            ),
        )

    def _lockstep(self, step, islands: int) -> tuple[list, int]:
        """The coupled epochs; returns the finalize payloads and the
        number of jobs migrated."""
        interchange = self.interchange
        sync = interchange.fair_share_sync
        threshold = interchange.migrate_after_s
        specs = [part.spec(self.spec) for part in self.layout]
        ledger: dict[str, float] = {}
        migrations = 0
        pending = step("begin", [()] * islands)
        boundary = interchange.epoch_s
        while any(pending):
            reports = step("advance", [(boundary, sync, threshold)] * islands)
            if sync:
                # Island index order: one float-summation order.
                for usage, _, _ in reports:
                    for user, hours in usage.items():
                        ledger[user] = ledger.get(user, 0.0) + hours
            removals: list[list[int]] = [[] for _ in range(islands)]
            incoming: list[list[JobRequest]] = [[] for _ in range(islands)]
            if threshold is not None:
                moves = plan_migrations(
                    [report[1] for report in reports],
                    [report[2] for report in reports],
                    specs,
                )
                for source, request, target in moves:
                    removals[source].append(request.job_id)
                    request.tags["migrated"] = True
                    request.tags["migrated_to"] = target
                    incoming[target].append(request)
                migrations += len(moves)
            pending = step(
                "exchange",
                [
                    (ledger if sync else None, removals[i], incoming[i], boundary)
                    for i in range(islands)
                ],
            )
            boundary += interchange.epoch_s
        return step("finalize", [()] * islands), migrations


def _remap_nodes(records: list[JobRecord], node_start: int) -> None:
    """Rewrite island-local node indices as global machine indices."""
    if node_start == 0:
        return
    for record in records:
        record.nodes = tuple(node_start + node for node in record.nodes)


def run_partitioned(
    requests: list[JobRequest],
    num_partitions: int,
    *,
    total_nodes: int | None = None,
    spec: ClusterSpec | None = None,
    config: SchedulerConfig | None = None,
    interchange: InterchangeConfig | None = None,
) -> PartitionedResult:
    """Convenience wrapper: layout + runner + run in one call."""
    if spec is not None and total_nodes is None:
        total_nodes = spec.num_nodes
    if total_nodes is None:
        raise SchedulerError("run_partitioned needs total_nodes or a spec")
    layout = PartitionLayout.even(total_nodes, num_partitions)
    runner = PartitionedRunner(
        layout, spec=spec, config=config, interchange=interchange
    )
    return runner.run(requests)
