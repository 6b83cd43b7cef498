"""Run the foldcheck CLI with the benchmark's span recorder installed.

    python3 bench/traced_cli.py SPANS_FILE ARGS...

Behaves like ``python3 -m foldcheck.cli ARGS...`` (``src`` must be on
PYTHONPATH) and writes the recorded spans to SPANS_FILE when it ends,
including when the CLI ends in an uncaught exception.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import Tracer


def main() -> int:
    spans_file = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    import foldcheck.cli

    try:
        return foldcheck.cli.main(sys.argv[2:])
    finally:
        spans_file.write_text(json.dumps(tracer.raw()))


if __name__ == "__main__":
    sys.exit(main())
