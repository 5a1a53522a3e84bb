"""Forked island hosts: the process transport of the island runner.

:class:`~repro.slurm.interchange.PartitionedRunner` writes the epoch
protocol once and runs it over one of two transports.  This module is
the process one: ``min(workers, islands)`` forked hosts, island ``i``
on host ``i % hosts``, each stepping its islands on the parent's
commands over a pipe.

* Only the bounded interchange payload crosses the pipe each epoch:
  per-user fair-share usage deltas, migration candidates and queue
  lengths going up, the merged ledger and the planned moves coming
  back.  Cluster and event-loop state never leave the host.
* Heartbeats ride a second, one-way pipe that exists only while a
  progress sink watches, so observation cannot reorder or alter the
  protocol.
* A host that raises ships its traceback home; a host that dies is
  noticed at the next send or receive.  Either way the parent raises
  :class:`IslandFailed` naming the island at work, which the host
  writes to a shared slot before each island step, and every host is
  reaped before :meth:`~repro.slurm.interchange.PartitionedRunner.run`
  returns or raises.
"""

from __future__ import annotations

import traceback

from repro.pipeline.parallel import ParallelTaskError


class IslandFailed(ParallelTaskError):
    """An island failed in its host process; ``index`` is the island."""

    label = "island"


def _host_main(conn, heartbeat_conn, current, runner, assignments) -> None:
    """Host process body: serve the parent's commands to its islands.

    Every reply is ``("ok", [one reply per island])``.  A failure
    replies ``("error", traceback)`` and ends the host; ``current``
    names the island it hit.  ``run`` (uncoupled) and ``finalize``
    (coupled) are the last commands of a run.
    """
    from repro.slurm.interchange import _IslandHost

    beat = None
    if heartbeat_conn is not None:
        def beat(heartbeat):
            heartbeat_conn.send(heartbeat.to_payload())

    try:
        host = _IslandHost(
            runner, assignments, own_obs=True, beat=beat, current=current
        )
        command = None
        while command not in ("run", "finalize"):
            command, args = conn.recv()
            conn.send(("ok", host.step(command, args)))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # the parent is gone
            pass
    finally:
        conn.close()
        if heartbeat_conn is not None:
            heartbeat_conn.close()


class ForkedHost:
    """The parent's end of one forked host process."""

    mode = "parallel"

    def __init__(self, ctx, runner, assignments: list, sink) -> None:
        self.islands = [part.index for part, _ in assignments]
        self.sink = sink
        #: Shared with the host: the index of the island at work.
        self.current = ctx.RawValue("i", self.islands[0])
        self.conn, child = ctx.Pipe()
        self.heartbeats = heartbeat_child = None
        if sink is not None:
            # duplex=False: heartbeats flow host -> parent only.
            self.heartbeats, heartbeat_child = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_host_main,
            args=(child, heartbeat_child, self.current, runner, assignments),
            daemon=True,
        )
        try:
            self.process.start()
        except OSError:
            self.conn.close()
            if self.heartbeats is not None:
                self.heartbeats.close()
            raise
        finally:
            child.close()
            if heartbeat_child is not None:
                heartbeat_child.close()

    def send(self, command: str, args: list) -> None:
        try:
            self.conn.send((command, args))
        except OSError:
            raise self._died() from None

    def recv(self) -> list:
        try:
            message = self.conn.recv()
        except (EOFError, OSError):
            raise self._died() from None
        if self.heartbeats is not None:
            # Non-blocking: the lockstep never waits on telemetry.
            try:
                while self.heartbeats.poll(0):
                    self.sink.update(self.heartbeats.recv())
            except EOFError:  # the host closed its end after finalize
                pass
        if message[0] == "error":
            raise IslandFailed(self.current.value, message[1])
        return message[1]

    def _died(self) -> IslandFailed:
        self.process.join(timeout=1.0)
        return IslandFailed(
            self.current.value,
            f"its host process (islands {self.islands}) exited without a "
            f"reply, exit code {self.process.exitcode}",
        )

    def close(self, wait: bool = True) -> None:
        """Close the pipes and reap the host; kill it unless ``wait``."""
        self.conn.close()
        if self.heartbeats is not None:
            self.heartbeats.close()
        if wait:
            self.process.join(timeout=30)
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()


def start_forked_hosts(runner, assignments: list, count: int, sink) -> list | None:
    """``count`` forked hosts, island ``i`` on host ``i % count``.

    ``None`` when the platform cannot fork or a host fails to start;
    the runner then takes the in-process transport instead.
    """
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return None
    hosts: list[ForkedHost] = []
    try:
        for index in range(count):
            hosts.append(ForkedHost(ctx, runner, assignments[index::count], sink))
    except OSError:
        for host in hosts:
            host.close(wait=False)
        return None
    return hosts
