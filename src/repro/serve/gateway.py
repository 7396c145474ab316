"""Admission control, deadlines, and graceful drain for the serve path.

The engine answers requests; the gateway decides *whether and when* they
get to run.  Four protections wrap
:class:`~repro.serve.engine.PredictionEngine`:

* **Backpressure** — at most ``queue_limit`` requests may be pending
  (queued or executing) at once.  A request arriving past that bound is
  rejected *immediately* with a typed ``overloaded`` error instead of
  growing an unbounded queue: the client learns to back off while the
  answer is still cheap.
* **Per-client fairness** — when callers tag requests with a client
  identity (the daemon tags each connection), no client may hold more
  than its fair share of the queue: ``queue_limit // active_clients``
  slots (at least one).  A connection flooding the daemon is rejected
  above its share while everyone else's requests keep being admitted —
  one bad client cannot starve the rest of queue slots.
* **Deadlines** — with ``deadline_s`` set, a request's clock starts at
  admission.  If the deadline has already passed when a worker picks the
  request up, the engine is never invoked (the client has given up;
  computing would be pure waste); if it passes *during* computation, the
  result is discarded and a ``deadline-exceeded`` error is returned so the
  client never acts on an answer it had stopped waiting for.
* **Graceful drain** — :meth:`ServeGateway.drain` stops admissions (new
  requests get ``overloaded``) and blocks until every in-flight request has
  finished, so shutdown never drops accepted work.

Execution is *batched*: admission (:meth:`ServeGateway.admit`) hands back
a token whose future resolves to the response, and
:meth:`ServeGateway.execute_batch` runs any number of admitted tokens as
**one** engine call (``PredictionEngine.handle_batch``, which stacks
feature requests into a single vectorized prediction) on a pool of
``max_workers`` threads.  The gateway holds one engine;
:meth:`ServeGateway.swap_engine` atomically replaces it between batches
(a batch already handed to the pool finishes on the engine it started
with), which is what makes the daemon's hot artifact reload a
zero-downtime operation.

Every decision is tallied in :class:`GatewayCounters`, batch shapes in
:class:`BatchStats`; the CLI and the daemon's ``healthz`` expose both — an
overloaded or deadline-starved serve run is visible in its output, not
just slow.

The ``serve.malformed`` fault-injection site sits between admission and the
engine: a fault plan can replace an accepted request with structural
garbage, proving the engine's error taxonomy holds even behind the gateway.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait

from repro.resilience.faults import get_injector
from repro.serve.engine import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    PredictionEngine,
    error_response,
    parse_request_lines,
)


@dataclasses.dataclass(frozen=True)
class GatewayConfig:
    """Admission-control knobs for one :class:`ServeGateway`."""

    max_workers: int = 4
    queue_limit: int = 64
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")


@dataclasses.dataclass
class GatewayCounters:
    """What the gateway did with every request it saw."""

    admitted: int = 0
    served_ok: int = 0
    served_error: int = 0
    overloaded: int = 0
    deadline_exceeded: int = 0

    def balanced(self) -> bool:
        """Whether every admitted request has been accounted for — after a
        drain, ``admitted == ok + error + deadline_exceeded`` or responses
        were dropped."""
        return self.admitted == (
            self.served_ok + self.served_error + self.deadline_exceeded
        )

    def summary(self) -> str:
        return (
            f"gateway: {self.admitted} admitted, {self.served_ok} ok, "
            f"{self.served_error} error(s), {self.overloaded} overloaded, "
            f"{self.deadline_exceeded} past deadline"
        )


@dataclasses.dataclass
class BatchStats:
    """Shape accounting for the batched execution path.

    The ``window_*`` fields mirror the daemon's latency-aware window
    controller (see ``repro.serve.daemon.WindowController``): the window
    it is currently running, and how many times it shrank toward zero
    (under-full batches — latency wins) or grew back toward the
    configured base (sustained queue depth — throughput wins).  They stay
    zero for gateways driven without a daemon in front.
    """

    batches: int = 0
    batched_requests: int = 0
    max_batch: int = 0
    window_ms: float = 0.0
    window_shrinks: int = 0
    window_grows: int = 0

    def record(self, size: int) -> None:
        self.batches += 1
        self.batched_requests += size
        self.max_batch = max(self.max_batch, size)

    def mean_batch(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0


@dataclasses.dataclass
class AdmittedRequest:
    """One admission decision: the request, its future, and its clock.

    ``admitted`` is False for rejections, whose ``future`` is already
    resolved to the typed ``overloaded`` response; only admitted tokens
    may be passed to :meth:`ServeGateway.execute_batch` (exactly once).
    """

    request: object
    request_id: object
    client: str | None
    enqueued: float
    future: "Future[dict]"
    admitted: bool


def _rejected(response: dict) -> "Future[dict]":
    """An already-resolved future, so rejections and admissions present the
    same interface to callers."""
    future: "Future[dict]" = Future()
    future.set_result(response)
    return future


class ServeGateway:
    """Bounded, deadline-aware front door for one prediction engine.

    Usable as a context manager; exit drains (never drops) in-flight work.
    """

    def __init__(self, engine: PredictionEngine, config: GatewayConfig | None = None):
        self.engine = engine
        self.config = config or GatewayConfig()
        self.counters = GatewayCounters()
        self.batch_stats = BatchStats()
        self._lock = threading.Lock()
        self._pending = 0
        self._client_pending: dict[str, int] = {}
        self._draining = False
        self._pool = ThreadPoolExecutor(max_workers=self.config.max_workers)

    def swap_engine(self, engine: PredictionEngine) -> None:
        """Atomically replace the engine (hot artifact reload).

        Batches already handed to the pool finish on the engine they
        started with; every batch handed over after the swap runs on the
        new one — no request is dropped or delayed by the exchange.
        """
        with self._lock:
            self.engine = engine

    # ------------------------------------------------------------------

    def admit(self, request, client: str | None = None) -> AdmittedRequest:
        """Decide one request's fate *now*; never blocks, never raises.

        Admitted tokens hold an unresolved future and must be handed to
        :meth:`execute_batch`; rejected tokens carry their resolved typed
        ``overloaded`` response and must not be.
        """
        request_id = request.get("id") if isinstance(request, dict) else None
        with self._lock:
            rejection = self._admission_error(request_id, client)
            if rejection is not None:
                self.counters.overloaded += 1
                return AdmittedRequest(
                    request, request_id, client, time.monotonic(),
                    _rejected(rejection), admitted=False,
                )
            self._pending += 1
            self.counters.admitted += 1
            if client is not None:
                self._client_pending[client] = self._client_pending.get(client, 0) + 1
            return AdmittedRequest(
                request, request_id, client, time.monotonic(), Future(), admitted=True
            )

    def _admission_error(self, request_id, client: str | None) -> dict | None:
        """The typed rejection for one admission attempt, or ``None`` to
        admit.  Caller holds the lock."""
        if self._draining:
            return error_response(
                request_id, ERROR_OVERLOADED, "gateway is draining; retry elsewhere"
            )
        if self._pending >= self.config.queue_limit:
            return error_response(
                request_id,
                ERROR_OVERLOADED,
                f"queue full ({self.config.queue_limit} request(s) pending); "
                "back off and retry",
            )
        if client is not None:
            active = len(self._client_pending)
            if client not in self._client_pending:
                active += 1
            # Divisor floor of 2: even a lone client may hold at most half
            # the queue, so slots are always free for a newcomer — without
            # it, one flooder fills the queue and fairness never applies.
            share = max(1, self.config.queue_limit // max(2, active))
            if self._client_pending.get(client, 0) >= share:
                return error_response(
                    request_id,
                    ERROR_OVERLOADED,
                    f"client over fair share ({share} of "
                    f"{self.config.queue_limit} slot(s) across {active} "
                    "client(s)); back off and retry",
                )
        return None

    def reject(self, request, message: str) -> dict:
        """A typed ``overloaded`` rejection, counted like any other.

        For callers that must refuse a request *without* consulting
        admission control — the daemon uses this for reads that arrive
        after shutdown has begun, when admitting would enqueue a token no
        batch loop is left to execute.
        """
        request_id = request.get("id") if isinstance(request, dict) else None
        with self._lock:
            self.counters.overloaded += 1
        return error_response(request_id, ERROR_OVERLOADED, message)

    def execute_batch(self, tokens) -> None:
        """Run admitted tokens as one engine batch on a pool thread.

        Each token's future resolves to its response.  If the pool is
        already shut down (a drain race), every token resolves to a typed
        ``overloaded`` error and the admission is rolled back — callers
        never see an exception or a hung future.
        """
        tokens = [token for token in tokens if token.admitted]
        if not tokens:
            return
        with self._lock:
            try:
                # Still under the lock: drain() cannot shut the pool down
                # between the admission check and the hand-off, and a
                # concurrent swap_engine() lands wholly before or after it.
                self._pool.submit(self._run_batch, tokens, self.engine)
                return
            except RuntimeError:
                # The pool was already shut down before we saw _draining.
                for token in tokens:
                    self._pending -= 1
                    self.counters.admitted -= 1
                    self.counters.overloaded += 1
                    self._release_client(token.client)
        for token in tokens:
            token.future.set_result(
                error_response(
                    token.request_id, ERROR_OVERLOADED,
                    "gateway is draining; retry elsewhere",
                )
            )

    def submit(self, request, client: str | None = None) -> "Future[dict]":
        """Admit one request; the future resolves to its response dict.

        Rejections (draining gateway, full queue, client over fair share)
        resolve immediately with a typed ``overloaded`` error — ``submit``
        itself never blocks and never raises on bad input.
        """
        token = self.admit(request, client)
        if token.admitted:
            self.execute_batch([token])
        return token.future

    def serve_batch(self, requests) -> list[dict]:
        """Submit a batch and wait; responses come back in request order
        (rejected slots carry their ``overloaded`` error in place).

        Submissions are throttled so the batch never trips admission
        control against itself: at most ``queue_limit`` of its requests are
        in flight at once, and the next submission waits for *any* — not
        the oldest — outstanding one to finish, so one slow request cannot
        idle the window while its neighbours' slots sit free.  The queue
        bound thus protects concurrent :meth:`submit` callers from *each
        other*, while a batch of any size is served completely — an
        ``overloaded`` slot here means genuine contention (another client,
        or a draining gateway), never batch length.
        """
        requests = list(requests)
        responses: list[dict | None] = [None] * len(requests)
        in_flight: dict["Future[dict]", int] = {}
        for index, request in enumerate(requests):
            while len(in_flight) >= self.config.queue_limit:
                done, _ = wait(tuple(in_flight), return_when=FIRST_COMPLETED)
                for future in done:
                    responses[in_flight.pop(future)] = future.result()
            in_flight[self.submit(request)] = index
        for future, index in in_flight.items():
            responses[index] = future.result()
        return responses

    def serve_lines(self, lines) -> list[dict]:
        """The JSON-lines protocol through the gateway's admission control."""
        return self.serve_batch(parse_request_lines(lines))

    def drain(self) -> None:
        """Stop admitting and wait for every in-flight request to finish."""
        with self._lock:
            self._draining = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ServeGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.drain()

    # ------------------------------------------------------------------

    def _release_client(self, client: str | None) -> None:
        """Return one fair-share slot.  Caller holds the lock."""
        if client is None:
            return
        remaining = self._client_pending.get(client, 0) - 1
        if remaining > 0:
            self._client_pending[client] = remaining
        else:
            self._client_pending.pop(client, None)

    def _run_batch(self, tokens, engine: PredictionEngine) -> None:
        """Worker-side: enforce deadlines around one batched engine call.

        Slots are released (and counters settled) *before* any future
        resolves — a caller observing a completed future must find the
        queue capacity it consumed already free again.
        """
        try:
            responses = self._compute_batch(tokens, engine)
        except BaseException as error:  # the taxonomy's floor, worker edition
            responses = [
                error_response(token.request_id, ERROR_INTERNAL, str(error))
                for token in tokens
            ]
        with self._lock:
            self.batch_stats.record(len(tokens))
            for token, response in zip(tokens, responses):
                if response.get("ok"):
                    self.counters.served_ok += 1
                elif response["error"]["type"] == ERROR_DEADLINE_EXCEEDED:
                    self.counters.deadline_exceeded += 1
                else:
                    self.counters.served_error += 1
                self._pending -= 1
                self._release_client(token.client)
        for token, response in zip(tokens, responses):
            token.future.set_result(response)

    def _compute_batch(self, tokens, engine: PredictionEngine) -> list[dict]:
        """One batched engine call, bracketed by the two deadline checks."""
        deadline = self.config.deadline_s
        responses: list[dict | None] = [None] * len(tokens)
        live: list[int] = []
        requests: list[object] = []
        now = time.monotonic()
        for index, token in enumerate(tokens):
            waited = now - token.enqueued
            if deadline is not None and waited > deadline:
                responses[index] = error_response(
                    token.request_id,
                    ERROR_DEADLINE_EXCEEDED,
                    f"waited {waited:.3f}s in queue against a {deadline}s deadline",
                    waited,
                )
                continue
            request = token.request
            injector = get_injector()
            if injector.active:
                request = injector.mangle(
                    "serve.malformed", str(token.request_id), request
                )
            live.append(index)
            requests.append(request)
        if live:
            for index, response in zip(live, engine.handle_batch(requests)):
                token = tokens[index]
                elapsed = time.monotonic() - token.enqueued
                if deadline is not None and elapsed > deadline:
                    response = error_response(
                        token.request_id,
                        ERROR_DEADLINE_EXCEEDED,
                        f"completed in {elapsed:.3f}s against a {deadline}s deadline",
                        elapsed,
                    )
                responses[index] = response
        return responses
