#!/usr/bin/env python3
"""Run one ErbiumDB benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload rest-oltp --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it reports the per-layer metrics of a traced run.
Every line but the last is a human-readable report; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every operation succeeded and matched the oracle.
See ``perfbench/README.md`` for the workloads and how to read the output.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program():
    """Import the program from this checkout's ``src`` (and nowhere else)."""

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC}; nothing to measure\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {SRC}\n")
        raise SystemExit(2)


if __name__ == "__main__":
    load_program()
    from harness import main

    sys.exit(main())
