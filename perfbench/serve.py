"""Run the profiling daemon (``repro serve``) so that the traced run can
switch its span wrappers on and off by signal.

Usage: ``python3 perfbench/serve.py TRACE_DIR [repro serve arguments...]``
"""

from __future__ import annotations

import sys

from spans import Tracer, switch_on_signal


def main(argv) -> int:
    switch_on_signal(Tracer(argv[0], in_memory=False))
    from repro.cli import main as cli_main

    return cli_main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
