"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics with ``--trace 1``).
The line before it carries the run's provenance and details.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build", "serve-features", "serve-source")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _isolate(work: Path, src: Path) -> None:
    """Hidden state off: a private measurement cache and model registry,
    no worker-count or fault-plan override from the caller's shell."""
    for name in ("REPRO_JOBS", "REPRO_FAULT_PLAN", "REPRO_NO_REUSEPORT"):
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["REPRO_ARTIFACT_DIR"] = str(work / "artifacts")
    os.environ["PYTHONPATH"] = str(src)
    sys.path[:0] = [str(src), str(HERE)]


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs.  A
    run with a high share of it measured a contended host."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    # A terminated run still unwinds: daemons stop, the work dir goes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    steal, started = _steal_s(), time.monotonic()
    try:
        _isolate(work, src)
        if args.workload == "build":
            import build_workload

            outcome = build_workload.run(args.seed, args.seconds, bool(args.trace), work)
        else:
            import serve_workload

            outcome = serve_workload.run(
                args.workload, args.seed, args.seconds, bool(args.trace), work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    metrics = outcome["metrics"]
    if args.trace:
        # A layer the workload never calls did no work on it.
        metrics = {m["name"]: metrics.get(m["name"], 0.0) for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: workload produced no {', '.join(missing)}", file=sys.stderr)
        return 2
    problems = outcome["problems"]
    for problem in problems[:20]:
        print(f"perfbench: oracle: {problem}", file=sys.stderr)
    report = {
        **_provenance(args),
        **outcome["report"],
        "host_steal_share": (_steal_s() - steal)
        / ((time.monotonic() - started) * (os.cpu_count() or 1)),
        "oracle_problems": len(problems),
    }
    print(json.dumps({"perfbench": report}))
    print(json.dumps({
        "correct": not problems,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
