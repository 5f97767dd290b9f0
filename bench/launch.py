"""Run one ``fedcard`` CLI command with the benchmark's tracer installed.

    python3 bench/launch.py <snapshot.json> <command> [options...]

The spans and counters of the command are written to ``snapshot.json``
when it exits; the exit code is the command's own.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    snapshot, args = Path(sys.argv[1]), sys.argv[2:]
    import fedcard.cli

    tracer = Tracer()
    tracer.install()
    try:
        fedcard.cli.main.main(args=args, prog_name="fedcard")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.enabled = False
        tracer.dump(snapshot)
    return code


if __name__ == "__main__":
    sys.exit(main())
