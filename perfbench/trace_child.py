"""Run one `quadforge` command with the layer tracer installed.

    python3 perfbench/trace_child.py STATS_JSON -- gen --n 50 --t 3 ...

Writes the per-layer totals to STATS_JSON and exits with the command's exit
code.  The benchmark uses it for the traced `gen-large` ops, which each run
in a fresh process.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import TARGETS  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list) -> int:
    stats_path, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py STATS_JSON -- COMMAND...")
    import quadforge.cli  # noqa: F401  (the tracer patches loaded modules)

    tracer = Tracer()
    tracer.install(TARGETS, "quadforge")
    try:
        code = sys.modules["quadforge.cli"].main(command)
    finally:
        tracer.uninstall()
        Path(stats_path).write_text(
            json.dumps({name: asdict(st) for name, st in tracer.stats.items()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
