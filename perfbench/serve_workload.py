"""The ``serve-features`` and ``serve-source`` workloads.

A ``repro serve --listen`` daemon with default flags runs in its own
process; one open-loop generator offers it seeded Poisson traffic.  The
run first holds the workload's reference rate (p50/p99 come from there),
then climbs a rate ladder to find the highest rate that meets the p99
limit with no failed request and no growing backlog.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from build_workload import one_build
from inputs import (
    ENSEMBLE_SHARE,
    TRAIN_SEED,
    encode_request,
    feature_request,
    make_suite,
    request_loops,
    request_plan,
    source_request,
)
from layers import serve_layer_metrics
from loadgen import DRAIN_TIMEOUT_S, LoadGenerator, StepResult
from oracle import check_responses, expected_answers, round_trip_failures
from spans import load_spans

P99_LIMIT_MS = 50.0
BACKLOG_FLOOR = 5
#: Reference rates (req/s): about 13% and 15% of one core of daemon CPU
#: (2.6 ms and 5 ms per request), far enough below the knee that p50/p99
#: do not swing with the host's CPU steal.
REFERENCE_RATE = {"serve-features": 50.0, "serve-source": 30.0}
#: Share of the run spent at the reference rate; the rest climbs the ladder.
REFERENCE_SHARE = 0.7
#: The rate ladder above the reference rate: rung k offers
#: reference x RUNG_FACTOR**k for RUNG_S seconds or RUNG_REQUESTS
#: requests, whichever is longer, after SETTLE_S idle.  The first pass
#: climbs COARSE_STRIDE rungs at a time, RUNG_S each, until a rung fails.
RUNG_FACTOR = 1.08
COARSE_STRIDE = 6
RUNG_S = 1.0
RUNG_REQUESTS = 150
SETTLE_S = 0.2
#: Daemon spawns per run; setup_s is the median.
SPAWNS = 3
HOST = "127.0.0.1"


# ---------------------------------------------------------------------------
# The daemon process, observed from outside.
# ---------------------------------------------------------------------------


def _die_with_parent() -> None:
    """In the forked child: have the kernel SIGKILL the daemon if the
    benchmark itself is killed before it can stop it."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Daemon:
    """One daemon process: spawn, probe, read /proc, stop with SIGTERM."""

    def __init__(self, argv: list[str], log: Path):
        self.argv = argv
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout_s: float = 120.0) -> float:
        """Spawn; return seconds until the first healthz answer."""
        start = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                self.argv, stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
                preexec_fn=_die_with_parent,
            )
        line = self._read_line(timeout_s)
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r} (see {self.log})")
        self.port = int(line.rsplit(":", 1)[1].split()[0])
        while True:
            try:
                if self.healthz().get("ok"):
                    return time.perf_counter() - start
            except OSError:
                pass
            if time.perf_counter() - start > timeout_s:
                self.stop()
                raise RuntimeError("daemon never answered healthz")
            time.sleep(0.005)

    def _read_line(self, timeout_s: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout_s):
                return ""
        return self.proc.stdout.readline().decode("utf-8", "replace").strip()

    def healthz(self) -> dict:
        with socket.create_connection((HOST, self.port), timeout=10) as sock:
            sock.sendall(b'{"healthz": true, "id": "perfbench-healthz"}\n')
            with sock.makefile("rb") as stream:
                return json.loads(stream.readline())

    def _proc_fields(self) -> list[str]:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()

    def cpu_s(self) -> float:
        """utime + stime of every thread, in seconds."""
        fields = self._proc_fields()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout_s: float = 60.0) -> int:
        """SIGTERM (the drain-shaped shutdown); SIGKILL if it hangs."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def _counters(health: dict) -> dict:
    """The healthz counters the per-layer metrics read."""
    h = health["healthz"]
    gateway, batching = h["gateway"], h["batching"]
    return {
        "serve.admitted": gateway["admitted"],
        "serve.served_ok": gateway["served_ok"],
        "serve.served_error": gateway["served_error"],
        "serve.overloaded": gateway["overloaded"],
        "serve.deadline_exceeded": gateway["deadline_exceeded"],
        "serve.batch_mean": batching["mean_batch"],
        "serve.batches": batching["batches"],
        "serve.window_ms_final": batching["adaptive"]["current_window_ms"],
        "serve.window_grows": batching["adaptive"]["grows"],
        "serve.window_shrinks": batching["adaptive"]["shrinks"],
    }


# ---------------------------------------------------------------------------
# Traffic.
# ---------------------------------------------------------------------------


@dataclass
class Step:
    """One rate step: what was sent, what came back, and the verdict."""

    result: StepResult
    sent: dict  # request id -> (loop index, classifier)
    cpu_s: float
    counters: dict

    @property
    def rate(self) -> float:
        return self.result.rate

    def failed(self) -> int:
        return sum(1 for rid in self.sent if not self.result.responses.get(rid, {}).get("ok"))

    def latencies_ms(self) -> np.ndarray:
        """Per request, from its due time; a failed request counts as
        missing every limit: it reads as the generator's drain timeout."""
        lat = self.result.latencies_s * 1e3
        ok = np.array([bool(self.result.responses.get(rid, {}).get("ok")) for rid in self.sent])
        return np.where(ok & ~np.isnan(lat), lat, DRAIN_TIMEOUT_S * 1e3)

    def p99_ms(self) -> float:
        return float(np.percentile(self.latencies_ms(), 99))

    def backlog_grew(self) -> bool:
        """More requests outstanding after the last send than the latency
        limit allows (Little's law: rate x limit), with a floor of a few
        requests so one scheduler stall at the end of a short step does not
        read as a growing queue."""
        return self.result.backlog_at_end > max(BACKLOG_FLOOR, self.rate * P99_LIMIT_MS / 1e3)

    def passes(self) -> bool:
        return self.failed() == 0 and self.p99_ms() <= P99_LIMIT_MS and not self.backlog_grew()

    def summary(self) -> dict:
        lat = self.latencies_ms()
        return {
            "rate": round(self.rate, 3),
            "sent": self.result.sent,
            "failed": self.failed(),
            "p50_ms": float(np.percentile(lat, 50)),
            "p99_ms": self.p99_ms(),
            "backlog_at_end": self.result.backlog_at_end,
            "late_ms_max": self.result.late_ms_max(),
            "late_ms_p99": self.result.late_ms_p99(),
            "generator_valid": self.result.generator_valid,
            "passes": self.passes(),
            "cpu_us_per_req": self.cpu_s / max(1, self.result.sent) * 1e6,
            "healthz": self.counters,
        }


class Traffic:
    """Builds each step's request lines and runs it against one daemon."""

    def __init__(self, workload: str, seed: int, loops: list, payloads: list):
        self.workload = workload
        self.seed = seed
        self.n_loops = len(loops)
        self.payloads = payloads  # per loop: feature vector or source text
        self.next_id = 0

    def lines(self, step: int, rate: float, seconds: float):
        features = self.workload == "serve-features"
        plan = request_plan(self.seed, step, rate, seconds, self.n_loops,
                            ENSEMBLE_SHARE if features else 0.0)
        ids = list(range(self.next_id, self.next_id + len(plan)))
        self.next_id += len(plan)
        sent, lines = {}, []
        for rid, j, ensemble in zip(ids, plan.loop_index, plan.ensemble):
            j = int(j)
            if features:
                request = feature_request(rid, self.payloads[j], bool(ensemble))
            else:
                request = source_request(rid, self.payloads[j])
            sent[rid] = (j, "ensemble" if ensemble else "svm")
            lines.append(encode_request(request))
        return plan, ids, lines, sent

    async def step(self, gen: LoadGenerator, daemon: Daemon, index: int,
                   rate: float, seconds: float) -> Step:
        plan, ids, lines, sent = self.lines(index, rate, seconds)
        cpu0 = daemon.cpu_s()
        result = await gen.run_step(rate, ids, lines, plan.offsets)
        cpu = daemon.cpu_s() - cpu0
        return Step(result, sent, cpu, _counters(daemon.healthz()))


def rung_rate(reference: float, k: int) -> float:
    return reference * RUNG_FACTOR ** k


async def _reference_and_ladder(traffic: Traffic, daemon: Daemon, rate: float,
                                seconds: float, connections: int):
    """The reference-rate phase, then passes up the rate ladder in the
    time left.  The first pass strides up until a rung fails; each later
    pass climbs one rung at a time from two rungs below the first failure
    it knows of until two rungs in a row fail, so the samples gather
    around the knee.  Returns ``(reference, rungs)``."""
    async with LoadGenerator(HOST, daemon.port, connections) as gen:
        reference = await traffic.step(gen, daemon, 0, rate, seconds * REFERENCE_SHARE)
        rungs: list[Step] = []
        deadline = time.monotonic() + seconds * (1.0 - REFERENCE_SHARE)
        behind = 0

        async def climb(k: int, stride: int, fails_to_stop: int) -> int | None:
            """Rungs k, k + stride, ... until ``fails_to_stop`` fail in a
            row; the first of them, or None when time runs out."""
            nonlocal behind
            failing = 0
            while True:
                target = rung_rate(rate, k)
                duration = RUNG_S if stride > 1 else max(RUNG_S, RUNG_REQUESTS / target)
                if time.monotonic() + SETTLE_S + duration > deadline:
                    return None
                await asyncio.sleep(SETTLE_S)  # let the previous rung's queue drain
                step = await traffic.step(gen, daemon, len(rungs) + 1, target, duration)
                rungs.append(step)
                if not step.result.generator_valid:
                    # The generator fell behind: no verdict on the daemon.
                    # Retry the rung once, then give up on the ladder.
                    behind += 1
                    if behind == 2:
                        return None
                    continue
                behind = 0
                failing = 0 if step.passes() else failing + 1
                if failing == fails_to_stop:
                    return k - stride * (fails_to_stop - 1)
                k += stride

        first_fail = await climb(COARSE_STRIDE, COARSE_STRIDE, 1)
        while first_fail is not None:
            first_fail = await climb(max(1, first_fail - 2), 1, 2)
        return reference, rungs


def _isotonic(values: list[float], weights: list[float]) -> list[float]:
    """Weighted least-squares non-decreasing fit (pool adjacent violators)."""
    blocks: list[list[float]] = []  # [mean, weight, count]
    for v, w in zip(values, weights):
        blocks.append([v, w, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2, n2 = blocks.pop()
            v1, w1, n1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2, n1 + n2])
    return [mean for mean, _, count in blocks for _ in range(count)]


def max_rate_at_p99(steps: list[Step]) -> float:
    """Where p99 crosses the limit, from every valid step of the run.

    Steps are pooled per rate; a rate with any failed request or a grown
    backlog reads as at least twice the limit.  log(p99) is fitted non-decreasing
    in rate (latency cannot fall as load rises, so a dip is noise) and
    interpolated to the limit between the last rate under it and the
    first over it.  If no rate tried misses the limit, the highest one is
    returned (a lower bound)."""
    pooled: dict[float, list[Step]] = {}
    for step in steps:
        if step.result.generator_valid and step.result.sent:
            pooled.setdefault(round(step.rate, 6), []).append(step)
    rates = sorted(pooled)
    log_p99, weights = [], []
    for rate in rates:
        group = pooled[rate]
        lat = np.concatenate([s.latencies_ms() for s in group])
        bad = any(s.failed() or s.backlog_grew() for s in group)
        p99 = float(np.percentile(lat, 99))
        log_p99.append(math.log(max(p99, 2 * P99_LIMIT_MS) if bad else p99))
        weights.append(len(lat))
    fitted = _isotonic(log_p99, weights)
    limit = math.log(P99_LIMIT_MS)
    for i, (rate, value) in enumerate(zip(rates, fitted)):
        if value > limit:
            if i == 0:
                return rate * P99_LIMIT_MS / math.exp(value)
            r0, v0 = rates[i - 1], fitted[i - 1]
            return r0 + (rate - r0) * (limit - v0) / (value - v0)
    return rates[-1]


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------


def _prepare(workload: str, seed: int, work: Path):
    """Train the artifact and build the inputs and expected answers, all
    outside every timed region."""
    from repro.features.extract import extract_features
    from repro.frontend.unparse import to_source
    from repro.machine.itanium2 import ITANIUM2
    from repro.registry import load_artifact

    train_suite = make_suite(TRAIN_SEED)
    training = one_build(train_suite, TRAIN_SEED, work / "model.rma")
    loops = request_loops(seed)
    X = np.array([extract_features(loop, ITANIUM2) for loop in loops])
    expected = expected_answers(load_artifact(training.path), X)
    problems = []
    if workload == "serve-features":
        payloads = [[float(v) for v in row] for row in X]
    else:
        payloads = [to_source(loop) for loop in loops]
        problems += [f"{name}: source does not round-trip" for name in round_trip_failures(loops)]
    return training, loops, payloads, expected, problems


def _daemon_argv(model: Path, spans: Path | None) -> list[str]:
    serve = ["serve", "--model", str(model), "--listen", f"{HOST}:0"]
    if spans is None:
        return [sys.executable, "-m", "repro", *serve]
    launcher = Path(__file__).resolve().parent / "launcher.py"
    return [sys.executable, str(launcher), str(spans), *serve]


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    training, loops, payloads, expected, problems = _prepare(workload, seed, work)
    rate = REFERENCE_RATE[workload]
    connections = max(1, min(2, os.cpu_count() or 1))
    traffic = Traffic(workload, seed, loops, payloads)
    provenance = {
        "suite_seed": seed,
        "train_seed": TRAIN_SEED,
        "suite_loops": len(loops),
        "train_loops": training.n_loops,
        "payload_bytes_per_request": float(np.mean([
            len(encode_request(feature_request(0, p, False) if workload == "serve-features"
                               else source_request(0, p)))
            for p in payloads
        ])),
        "p99_limit_ms": P99_LIMIT_MS,
        "reference_rate": rate,
        "connections": connections,
    }
    if trace:
        return _run_traced(traffic, training, expected, problems, rate,
                           seconds, connections, work, provenance)

    setup, daemon = [], None
    for spawn in range(SPAWNS):
        daemon = Daemon(_daemon_argv(training.path, None), work / "daemon.log")
        setup.append(daemon.start())
        if spawn < SPAWNS - 1:
            daemon.stop()
    try:
        reference, rungs = asyncio.run(
            _reference_and_ladder(traffic, daemon, rate, seconds, connections)
        )
        peak_rss_mb = daemon.vm_hwm_mb()
    finally:
        daemon.stop()
    steps = [reference, *rungs]
    problems += _check(steps, expected)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "ok_rate": 1.0 - reference.failed() / reference.result.sent,
            "build_loops_per_s": training.n_loops / training.wall_s,
            "cpu_ms_per_op": reference.cpu_s / reference.result.sent * 1e3,
        },
        "attempted": reference.result.sent,
        "failed": reference.failed(),
        "problems": problems,
        "report": {
            **provenance,
            "setup_s": setup,
            "train_build_wall_s": training.wall_s,
            "max_rps_at_p99": max_rate_at_p99(steps),
            "rate_ladder": [s.rate for s in steps],
            "steps": [s.summary() for s in steps],
        },
    }


def _check(steps: list[Step], expected) -> list[str]:
    sent, responses = {}, {}
    for step in steps:
        sent.update(step.sent)
        responses.update(step.result.responses)
    return check_responses(sent, responses, expected)


async def _reference_only(traffic: Traffic, daemon: Daemon, rate: float,
                          seconds: float, connections: int) -> Step:
    async with LoadGenerator(HOST, daemon.port, connections) as gen:
        return await traffic.step(gen, daemon, 0, rate, seconds)


def _run_traced(traffic, training, expected, problems, rate, seconds,
                connections, work, provenance) -> dict:
    """The reference phase twice, same inputs: untraced (counters and CPU
    from outside), then with the launcher's wrappers (spans)."""
    phases = {}
    spans_path = work / "spans.jsonl"
    for label, spans in (("untraced", None), ("traced", spans_path)):
        traffic.next_id = 0
        daemon = Daemon(_daemon_argv(training.path, spans), work / f"daemon-{label}.log")
        daemon.start()
        try:
            phases[label] = asyncio.run(
                _reference_only(traffic, daemon, rate, seconds / 2, connections)
            )
        finally:
            code = daemon.stop()
        if code != 0:
            problems.append(f"{label} daemon exited with {code}")
        problems += _check([phases[label]], expected)
    plain, traced = phases["untraced"], phases["traced"]
    cpu_us = plain.cpu_s / plain.result.sent * 1e6
    traced_cpu_us = traced.cpu_s / traced.result.sent * 1e6
    metrics = dict(plain.counters)
    metrics["serve.cpu_us_per_req"] = cpu_us
    metrics["serve.p50_ms"] = float(np.percentile(plain.latencies_ms(), 50))
    metrics["serve.p99_ms"] = plain.p99_ms()
    metrics.update(serve_layer_metrics(load_spans(spans_path), traced_cpu_us))
    # The open loop fixes the wall clock, so the overhead is daemon CPU.
    metrics["trace.overhead_ratio"] = traced_cpu_us / cpu_us
    metrics["loadgen.late_ms_max"] = max(plain.result.late_ms_max(), traced.result.late_ms_max())
    return {
        "metrics": metrics,
        "attempted": plain.result.sent + traced.result.sent,
        "failed": plain.failed() + traced.failed(),
        "problems": problems,
        "report": {**provenance, "untraced": plain.summary(), "traced": traced.summary()},
    }

