"""``mlec-sim`` under the benchmark's layer tracer (traced runs only).

    python perfbench/traced_cli.py --out SUMMARY.json --t0 T -- ARGS...

Times the startup imports, wraps the layer boundaries, runs
``repro.cli.main(ARGS)`` and writes the tracer summary to ``--out``
when the command returns (for ``serve``: after its graceful drain).
The exit code is the command's.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, import_repro_cli, install_layers  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer(t0=args.t0)
    cli = import_repro_cli(tracer)
    install_layers(tracer)
    try:
        code = cli.main(argv)
    finally:
        summary = tracer.finish()
        Path(args.out).write_text(json.dumps(summary), encoding="utf-8")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
