"""Runs ``indefstring.cli.main`` the way the installed console script does.

The source tree's ``src`` directory goes first on ``sys.path``.  When
``PERFBENCH_SPANS`` names a file, the tracing wrappers are installed before
``main`` runs.  At exit the spans go to that file, and a ``.head`` file
beside it records the start-up time (from ``PERFBENCH_T0``, the parent's
clock just before it started this process, to the moment ``indefstring.cli``
is imported and ``main`` can be entered) and the process's ``coefficient_view``
cache misses.
"""
from __future__ import annotations

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def main() -> int:
    spans_path = os.environ.get("PERFBENCH_SPANS")
    if not spans_path:
        from indefstring.cli import main as cli_main

        return cli_main()

    import tracing
    from indefstring import cli

    startup = time.time() - float(os.environ["PERFBENCH_T0"])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.task = ("cli", 0)
    try:
        return cli.main()
    finally:
        path = Path(spans_path)
        tracing.write_spans(path, tracer.finished_spans())
        with open(path.with_suffix(".head"), "w", encoding="utf-8") as fh:
            fh.write(f"{startup!r}\t{tracer.view_misses()}\n")


if __name__ == "__main__":
    sys.exit(main())
