"""Open-loop load generator: seeded Poisson arrivals over a few connections.

One process, one asyncio thread, at most ``nproc`` connections.  Every
request line is encoded before the step starts; the sender writes each
line at its due time and the receivers match responses to requests by
``id``.  Latency is timed from the *due* time, so a stall in the daemon
also charges the requests that queued behind it, and the generator's own
lateness (send time minus due time) is reported per step so a step where
the generator fell behind is flagged instead of blamed on the daemon.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

import numpy as np

#: A step where more than a tenth of the requests went out over this many
#: ms late fell behind in the generator, not the daemon, and is not a
#: daemon result.  (One scheduler stall delays a few requests; falling
#: behind delays many.)
LATE_LIMIT_MS = 10.0
#: How long a step waits for outstanding responses after its last send.
DRAIN_TIMEOUT_S = 5.0


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process at ``rate`` over ``seconds``."""
    n = int(rate * seconds * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    while offsets[-1] < seconds:  # pragma: no cover - 1.5x covers it in practice
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=n))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < seconds]


@dataclass
class StepResult:
    """What one rate step observed, from the client side."""

    rate: float
    sent: int
    latencies_s: np.ndarray  # per request; NaN where no response came back
    lateness_s: np.ndarray  # per request send lateness
    responses: dict[int, dict] = field(default_factory=dict)
    backlog_at_end: int = 0  # requests outstanding when the last one was sent

    def late_ms_max(self) -> float:
        return float(self.lateness_s.max() * 1e3) if self.sent else 0.0

    def late_ms_p99(self) -> float:
        return float(np.percentile(self.lateness_s, 99) * 1e3) if self.sent else 0.0

    @property
    def generator_valid(self) -> bool:
        return not self.sent or bool(np.percentile(self.lateness_s, 90) * 1e3 <= LATE_LIMIT_MS)


class LoadGenerator:
    """Open connections once; run any number of rate steps over them."""

    def __init__(self, host: str, port: int, connections: int):
        self.host = host
        self.port = port
        self.n_connections = connections
        self._conns: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def __aenter__(self) -> "LoadGenerator":
        for _ in range(self.n_connections):
            self._conns.append(
                await asyncio.open_connection(self.host, self.port, limit=1 << 22)
            )
        return self

    async def __aexit__(self, *exc) -> None:
        for _, writer in self._conns:
            writer.close()
        for _, writer in self._conns:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        self._conns.clear()

    async def run_step(
        self,
        rate: float,
        ids: list[int],
        lines: list[bytes],
        offsets: np.ndarray,
        drain_timeout_s: float = DRAIN_TIMEOUT_S,
    ) -> StepResult:
        """Send ``lines[i]`` (whose request id is ``ids[i]``) at
        ``offsets[i]`` seconds after the step starts; wait for every
        response or ``drain_timeout_s`` past the last send."""
        loop = asyncio.get_running_loop()
        n = len(lines)
        index_of = {request_id: i for i, request_id in enumerate(ids)}
        latencies = np.full(n, np.nan)
        lateness = np.zeros(n)
        responses: dict[int, dict] = {}
        pending = {"n": n}
        done = loop.create_future()
        start = loop.time() + 0.02
        due = start + offsets

        async def receive(reader: asyncio.StreamReader) -> None:
            while pending["n"] > 0:
                line = await reader.readline()
                now = loop.time()
                if not line:
                    return
                response = json.loads(line)
                i = index_of.get(response.get("id"))
                if i is None or not np.isnan(latencies[i]):
                    continue
                latencies[i] = now - due[i]
                responses[ids[i]] = response
                pending["n"] -= 1
                if pending["n"] == 0 and not done.done():
                    done.set_result(None)

        receivers = [asyncio.ensure_future(receive(reader)) for reader, _ in self._conns]
        writers = [writer for _, writer in self._conns]
        backlog = 0
        try:
            for i in range(n):
                delay = due[i] - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                now = loop.time()
                lateness[i] = max(0.0, now - due[i])
                writer = writers[i % len(writers)]
                writer.write(lines[i])
                if writer.transport.get_write_buffer_size() > 1 << 20:
                    await writer.drain()
            backlog = pending["n"]
            if n:
                try:
                    await asyncio.wait_for(asyncio.shield(done), drain_timeout_s)
                except asyncio.TimeoutError:
                    pass
        finally:
            for task in receivers:
                task.cancel()
            await asyncio.gather(*receivers, return_exceptions=True)
        return StepResult(
            rate=rate,
            sent=n,
            latencies_s=latencies,
            lateness_s=lateness,
            responses=responses,
            backlog_at_end=backlog,
        )
