"""The shared-nothing multi-process serve tier: one port, N interpreters.

A :class:`~repro.serve.daemon.ServeDaemon` is one Python process: its
socket loop and its single compute thread contend on one GIL.  Worker
processes are therefore the serve tier's only concurrency knob
(``--workers``), and this module escapes the GIL the way
production Python services do — by not sharing anything.  ``repro serve
--listen HOST:PORT --workers N`` runs a :class:`ServeCluster`: a parent
*supervisor* process that forks N completely independent
:class:`~repro.serve.daemon.ServeDaemon` worker processes, each with its
own interpreter, its own loaded artifact and engine, batch loop, window
controller, and hot-reload watcher.  Two sharding modes, chosen
automatically:

* **``reuseport``** (Linux and modern BSDs): every worker binds the same
  ``host:port`` with ``SO_REUSEPORT`` and the *kernel* shards incoming
  connections across the listening sockets — no user-space balancer, no
  shared accept lock, no extra hop.  The supervisor holds a bound (never
  listening) reservation socket in the same group so ``port 0`` resolves
  to one concrete port before any worker starts, and the port stays
  owned across worker restarts.
* **``balancer``** (fallback — macOS semantics, old kernels, or forced
  with ``REPRO_NO_REUSEPORT=1``): workers bind ephemeral ports and the
  supervisor runs a tiny asyncio front-end on the public port that deals
  accepted connections round-robin over the live workers and pumps bytes
  both ways.  A worker that refuses a connection (just crashed, not yet
  restarted) is skipped — the dealer retries the next worker, so a
  single death never surfaces as a refused public connection.

The supervisor also owns the *lifecycle*:

* **Crash restarts with backoff.**  A monitor thread watches worker
  processes; a dead worker is respawned after an exponentially growing
  delay (reset once a worker proves stable), re-registered with the
  balancer, and announced to its siblings.
* **Signal fan-out.**  SIGINT/SIGTERM to the supervisor forwards SIGTERM
  to every worker, each of which performs the daemon's drain-shaped
  shutdown (every admitted request answered); the supervisor waits for
  all of them before exiting.
* **Aggregated healthz.**  Each worker carries a *control* listener (an
  ephemeral second socket speaking the same protocol).  The supervisor
  broadcasts the control addresses to every worker, so a
  ``{"healthz": true, "aggregate": true}`` probe against *any* worker —
  wherever the kernel routed the connection — fans out to all siblings
  and answers with merged counters.  :meth:`ServeCluster.healthz` is the
  same merge done supervisor-side.

Workers are spawned (not forked) so no parent thread, lock, or event
loop leaks into a child; everything a worker needs travels as picklable
arguments.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import socket
import threading
import time
from pathlib import Path

from repro.serve.daemon import (
    DaemonConfig,
    ServeDaemon,
    merge_worker_health,
    probe_healthz,
)

#: Set (to anything non-empty except ``0``) to force the balancer mode
#: even where ``SO_REUSEPORT`` works — the escape hatch for kernels whose
#: reuseport sharding misbehaves, and the tests' lever for exercising the
#: fallback path on Linux.
NO_REUSEPORT_ENV = "REPRO_NO_REUSEPORT"


def reuseport_available() -> bool:
    """Whether kernel-level connection sharding can be used here.

    Checks the env override first, then the constant, then performs an
    actual bind probe — some platforms define ``SO_REUSEPORT`` and then
    refuse it at setsockopt/bind time.
    """
    if os.environ.get(NO_REUSEPORT_ENV, "").strip() not in ("", "0"):
        return False
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind(("127.0.0.1", 0))
    except OSError:
        return False
    finally:
        probe.close()
    return True


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Tunables for one :class:`ServeCluster`.

    ``daemon`` is the per-worker template: its ``host``/``port``/
    ``reuse_port``/``bind_control``/``worker_id`` fields are overridden
    per worker; everything else (window, max_batch, queue limit,
    deadline, reload poll, classifier, request log) applies to
    every worker identically.  Restart backoff doubles from
    ``restart_backoff_s`` to ``restart_backoff_max_s`` across
    consecutive failures and resets once a worker survives
    ``stable_after_s``.
    """

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    daemon: DaemonConfig = dataclasses.field(default_factory=DaemonConfig)
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 2.0
    stable_after_s: float = 10.0
    ready_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.restart_backoff_s <= 0:
            raise ValueError(
                f"restart_backoff_s must be positive, got {self.restart_backoff_s}"
            )


@dataclasses.dataclass
class WorkerHandle:
    """One live worker as the supervisor sees it."""

    worker_id: int
    process: multiprocessing.Process
    pid: int
    address: tuple[str, int]
    control_address: tuple[str, int]
    started: float
    restarts: int = 0
    backoff_s: float = 0.1
    restart_at: float | None = None

    def alive(self) -> bool:
        return self.process.is_alive()


def _worker_main(model_path, config, store_root, ready):  # pragma: no cover
    """Worker-process entry point (runs in the spawned child).

    Builds the daemon, binds its sockets, reports the bound addresses
    back through ``ready``, then serves until SIGTERM/SIGINT triggers the
    drain-shaped shutdown.  Excluded from coverage: it executes in a
    separate interpreter the parent's tracer cannot see.
    """
    import asyncio
    import contextlib

    from repro.registry.artifact import ArtifactStore

    store = ArtifactStore(store_root) if store_root is not None else ArtifactStore()
    try:
        daemon = ServeDaemon(model_path, config, store=store)
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop.run_until_complete(daemon.start())
    except BaseException as error:
        with contextlib.suppress(OSError, ValueError):
            ready.send({"worker": config.worker_id, "error": repr(error)})
        raise
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, loop.stop)
    ready.send(
        {
            "worker": config.worker_id,
            "pid": os.getpid(),
            "address": list(daemon.address),
            "control": list(daemon.control_address),
        }
    )
    ready.close()
    try:
        loop.run_forever()
    except KeyboardInterrupt:
        pass
    finally:
        loop.run_until_complete(daemon.stop())
        loop.close()


class WorkerStartupError(RuntimeError):
    """A worker died, reported a bind failure, or missed its ready
    deadline during spawn."""


class _Balancer:
    """The fallback front-end: accept on the public port, deal round-robin.

    A thin byte pump — it never parses the protocol, so it adds one local
    hop and nothing else.  Worker selection happens per *connection* (the
    daemon protocol is connection-oriented); a refused worker is skipped
    and the next is tried, so the rotation heals around a crashed worker
    before the supervisor has even noticed the death.
    """

    def __init__(self, host: str, port: int, addresses):
        self._host = host
        self._port = port
        self._addresses = addresses  # callable -> list[tuple[str, int]]
        self._next = 0
        self._loop = None
        self._server = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._tasks: set = set()
        self.address: tuple[str, int] | None = None
        self.connections = 0
        self.connect_failures = 0

    # ------------------------------------------------------------------

    def start(self) -> None:
        import asyncio

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._serve, name="serve-balancer", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error

    def _serve(self) -> None:
        import asyncio

        asyncio.set_event_loop(self._loop)
        try:
            self._server = self._loop.run_until_complete(
                asyncio.start_server(self._handle, self._host, self._port)
            )
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._ready.set()
        self._loop.run_forever()
        # run_forever returned: cancel connections still pumping, drain
        # pending callbacks, then close.
        for task in tuple(self._tasks):
            task.cancel()
        if self._tasks:
            self._loop.run_until_complete(
                asyncio.gather(*tuple(self._tasks), return_exceptions=True)
            )
        self._loop.run_until_complete(self._loop.shutdown_asyncgens())
        self._loop.close()

    async def _handle(self, reader, writer) -> None:
        import asyncio
        import contextlib

        # The loop holds only weak task references: anchor the handler so
        # a suspended connection pump cannot be garbage-collected alive.
        task = asyncio.current_task()
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        upstream = None
        addresses = list(self._addresses())
        offset = self._next
        self._next += 1
        for attempt in range(len(addresses)):
            target = addresses[(offset + attempt) % len(addresses)]
            try:
                upstream = await asyncio.open_connection(*target)
                break
            except OSError:
                # Worker down (crashed, restarting): deal to the next one.
                self.connect_failures += 1
                continue
        if upstream is None:
            # No live worker at all: refuse by closing — the client sees
            # a transport error, exactly as with no daemon bound.
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            return
        self.connections += 1
        up_reader, up_writer = upstream
        try:
            await asyncio.gather(
                self._pump(reader, up_writer),
                self._pump(up_reader, writer),
                return_exceptions=True,
            )
        except asyncio.CancelledError:
            # Balancer shutdown cancelled a still-pumping connection:
            # just drop both ends below.
            pass
        for stream in (up_writer, writer):
            with contextlib.suppress(ConnectionError, OSError):
                stream.close()
                with contextlib.suppress(asyncio.CancelledError):
                    await stream.wait_closed()

    @staticmethod
    async def _pump(reader, writer) -> None:
        import contextlib

        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    break
                writer.write(data)
                await writer.drain()
            # Forward the half-close so a worker sees client EOF (and vice
            # versa) instead of a wedged-open stream.
            if writer.can_write_eof():
                with contextlib.suppress(OSError):
                    writer.write_eof()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------

    def stop_accepting(self) -> None:
        """Close the public listener; connections already dealt keep
        pumping (the drain path: workers still answer them)."""
        if self._loop is None or self._server is None:
            return
        self._loop.call_soon_threadsafe(self._server.close)

    def stop(self) -> None:
        if self._loop is not None and self._startup_error is None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join()


class ServeCluster:
    """Supervisor for N shared-nothing daemon workers on one port.

    Usable as a context manager (``with ServeCluster(...) as cluster:``
    yields with every worker ready and ``cluster.address`` live) or via
    :meth:`run` for the CLI's serve-until-signalled path.
    """

    def __init__(
        self,
        model_path,
        config: ClusterConfig | None = None,
        store_root=None,
    ):
        self.config = config or ClusterConfig()
        self._model_path = str(model_path)
        self._store_root = str(store_root) if store_root is not None else None
        self._ctx = multiprocessing.get_context("spawn")
        self.mode: str | None = None
        self.address: tuple[str, int] | None = None
        self.restarts = 0
        self._reservation: socket.socket | None = None
        self._balancer: _Balancer | None = None
        self._workers: list[WorkerHandle] = []
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False
        #: Lifecycle announcements ("worker 2 pid 123 restarted ...");
        #: the CLI points this at print, tests at a list.
        self.on_event = None

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Choose the sharding mode, spawn every worker, start the
        balancer (if needed) and the restart monitor."""
        if self._started:
            raise RuntimeError("cluster already started")
        self.mode = "reuseport" if reuseport_available() else "balancer"
        host, port = self.config.host, self.config.port
        if self.mode == "reuseport":
            # Reserve the concrete port (resolving port 0 now) with a
            # bound, never-listening socket in the reuseport group: the
            # kernel only deals connections to *listening* sockets, so
            # the reservation receives nothing but keeps the port ours
            # across worker restarts.
            family = socket.AF_INET6 if ":" in host else socket.AF_INET
            self._reservation = socket.socket(family, socket.SOCK_STREAM)
            self._reservation.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            self._reservation.bind((host, port))
            port = self._reservation.getsockname()[1]
            self.address = (host, port)
        spawning = [
            self._spawn(worker_id, port) for worker_id in range(self.config.workers)
        ]
        try:
            self._workers = [self._await_ready(*pending) for pending in spawning]
        except Exception:
            for process, _ in spawning:
                if process.is_alive():
                    process.terminate()
            if self._reservation is not None:
                self._reservation.close()
            raise
        if self.mode == "balancer":
            self._balancer = _Balancer(host, port, self._worker_addresses)
            try:
                self._balancer.start()
            except Exception:
                self._signal_workers(signal.SIGTERM)
                raise
            self.address = self._balancer.address
        self._broadcast_peers()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._started = True
        self._monitor.start()

    def stop(self) -> None:
        """Drain-shaped cluster shutdown: stop restarts, stop accepting,
        let every worker answer what it admitted, then reap them all."""
        if not self._started:
            return
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join()
        if self._balancer is not None:
            # New connections refused from here on; dealt connections
            # keep flowing to the workers until those drain.
            self._balancer.stop_accepting()
        self._signal_workers(signal.SIGTERM)
        deadline = time.monotonic() + 60.0
        for handle in self._workers:
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        if self._balancer is not None:
            self._balancer.stop()
        if self._reservation is not None:
            self._reservation.close()
        self._started = False

    def __enter__(self) -> "ServeCluster":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def run(self) -> None:
        """Serve until SIGINT/SIGTERM (the CLI's ``--workers N`` path)."""
        finished = threading.Event()
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, lambda *_: finished.set())
        try:
            self.start()
            host, port = self.address
            self._announce(
                f"daemon listening on {host}:{port} "
                f"workers={self.config.workers} mode={self.mode}"
            )
            for handle in self._workers:
                self._announce(
                    f"worker {handle.worker_id} pid {handle.pid} ready on "
                    f"{handle.address[0]}:{handle.address[1]}"
                )
            finished.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.stop()

    # ------------------------------------------------------------------
    # introspection

    @property
    def workers(self) -> list[WorkerHandle]:
        with self._lock:
            return list(self._workers)

    def healthz(self) -> dict:
        """The supervisor-side aggregated health: probe every worker's
        control listener, merge counters, report the dead by id."""
        merged = merge_worker_health(
            [self._probe_worker(handle) for handle in self.workers]
        )
        merged["mode"] = self.mode
        merged["restarts"] = self.restarts
        return merged

    def summary(self) -> str:
        health = self.healthz()
        gateway = health["gateway"]
        return (
            f"cluster[{self.mode}]: {health['workers_alive']}/"
            f"{health['cluster_size']} worker(s), {self.restarts} restart(s), "
            f"{gateway['admitted']} admitted, {gateway['served_ok']} ok, "
            f"{gateway['served_error']} error(s), "
            f"{gateway['overloaded']} overloaded, "
            f"balanced={health['balanced']}"
        )

    @staticmethod
    def _probe_worker(handle: WorkerHandle) -> dict:
        try:
            return probe_healthz(*handle.control_address)
        except (OSError, ValueError, KeyError):
            return {"worker": handle.worker_id, "alive": False}

    # ------------------------------------------------------------------
    # spawning

    def _daemon_config(self, worker_id: int, port: int) -> DaemonConfig:
        return dataclasses.replace(
            self.config.daemon,
            host=self.config.host,
            port=port if self.mode == "reuseport" else 0,
            reuse_port=self.mode == "reuseport",
            bind_control=True,
            worker_id=worker_id,
        )

    def _spawn(self, worker_id: int, port: int):
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._model_path,
                self._daemon_config(worker_id, port),
                self._store_root,
                child_conn,
            ),
            name=f"serve-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def _await_ready(self, process, conn) -> WorkerHandle:
        deadline = time.monotonic() + self.config.ready_timeout_s
        try:
            while not conn.poll(0.05):
                if not process.is_alive():
                    raise WorkerStartupError(
                        f"worker process {process.pid} died before ready "
                        f"(exitcode {process.exitcode})"
                    )
                if time.monotonic() > deadline:
                    process.terminate()
                    raise WorkerStartupError(
                        f"worker process {process.pid} missed the "
                        f"{self.config.ready_timeout_s}s ready deadline"
                    )
            try:
                info = conn.recv()
            except EOFError:
                process.join(timeout=5.0)
                raise WorkerStartupError(
                    f"worker process {process.pid} closed its ready pipe "
                    f"without reporting (exitcode {process.exitcode})"
                ) from None
        finally:
            conn.close()
        if "error" in info:
            process.join(timeout=5.0)
            raise WorkerStartupError(
                f"worker {info.get('worker')} failed to start: {info['error']}"
            )
        address = (
            self.address
            if self.mode == "reuseport"
            else (info["address"][0], info["address"][1])
        )
        return WorkerHandle(
            worker_id=info["worker"],
            process=process,
            pid=info["pid"],
            address=address,
            control_address=(info["control"][0], info["control"][1]),
            started=time.monotonic(),
            backoff_s=self.config.restart_backoff_s,
        )

    # ------------------------------------------------------------------
    # control plane

    def _worker_addresses(self) -> list:
        """Live workers' client-facing addresses (the balancer's deck)."""
        with self._lock:
            return [
                handle.address for handle in self._workers if handle.alive()
            ]

    def _broadcast_peers(self) -> None:
        """Tell every live worker where its siblings' control listeners
        are, enabling wire-level aggregated healthz from any worker."""
        import json as json_mod

        with self._lock:
            peers = [
                [handle.worker_id, *handle.control_address]
                for handle in self._workers
                if handle.alive()
            ]
            targets = [
                handle.control_address for handle in self._workers if handle.alive()
            ]
        payload = (json_mod.dumps({"cluster_peers": peers}) + "\n").encode("utf-8")
        for target in targets:
            try:
                with socket.create_connection(target, timeout=5) as sock:
                    sock.sendall(payload)
                    stream = sock.makefile("r", encoding="utf-8", newline="\n")
                    stream.readline()
            except OSError:
                # Died between the snapshot and the send: the monitor will
                # respawn it and re-broadcast.
                continue

    def _signal_workers(self, signum: int) -> None:
        for handle in self.workers:
            if handle.alive():
                try:
                    os.kill(handle.pid, signum)
                except (ProcessLookupError, PermissionError):
                    continue

    def _announce(self, message: str) -> None:
        if self.on_event is not None:
            self.on_event(message)

    # ------------------------------------------------------------------
    # the restart monitor

    def _monitor_loop(self) -> None:
        """Watch workers; respawn the dead after their backoff.

        Exponential backoff per slot (doubling to the cap on consecutive
        failures, reset after ``stable_after_s`` of uptime) keeps a
        crash-looping model from melting the host while a one-off kill is
        healed in ~``restart_backoff_s``.
        """
        while not self._stopping.wait(0.05):
            now = time.monotonic()
            for index in range(len(self._workers)):
                with self._lock:
                    handle = self._workers[index]
                if handle.alive():
                    if (
                        handle.restart_at is None
                        and now - handle.started > self.config.stable_after_s
                        and handle.backoff_s != self.config.restart_backoff_s
                    ):
                        handle.backoff_s = self.config.restart_backoff_s
                    continue
                if handle.restart_at is None:
                    # Just noticed the death: schedule the respawn.  The
                    # balancer stops dealing to it via _worker_addresses
                    # (alive() is False) the moment we get here.
                    handle.restart_at = now + handle.backoff_s
                    self._announce(
                        f"worker {handle.worker_id} pid {handle.pid} died "
                        f"(exitcode {handle.process.exitcode}); restart in "
                        f"{handle.backoff_s:.2f}s"
                    )
                    continue
                if now < handle.restart_at:
                    continue
                try:
                    replacement = self._await_ready(
                        *self._spawn(handle.worker_id, self.address[1])
                    )
                except WorkerStartupError as error:
                    handle.backoff_s = min(
                        self.config.restart_backoff_max_s, handle.backoff_s * 2.0
                    )
                    handle.restart_at = time.monotonic() + handle.backoff_s
                    self._announce(
                        f"worker {handle.worker_id} restart failed ({error}); "
                        f"retry in {handle.backoff_s:.2f}s"
                    )
                    continue
                replacement.restarts = handle.restarts + 1
                replacement.backoff_s = min(
                    self.config.restart_backoff_max_s, handle.backoff_s * 2.0
                )
                with self._lock:
                    self._workers[index] = replacement
                self.restarts += 1
                self._announce(
                    f"worker {replacement.worker_id} pid {replacement.pid} "
                    f"restarted on "
                    f"{replacement.address[0]}:{replacement.address[1]}"
                )
                self._broadcast_peers()
