"""Run the repro CLI with the serve layers traced, then write the spans.

Usage: python3 perfbench/launcher.py SPANS_FILE CLI_ARG...

The wrappers are installed before ``repro.cli.main`` builds the daemon;
the spans are written after the CLI returns, i.e. after the SIGTERM drain.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import serve_patches  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    tracer = Tracer(clock=time.monotonic)
    with serve_patches(tracer):
        code = cli_main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
