"""Traced CLI job: `python3 perfbench/clirunner.py SIDE_FILE -- ARGV...`.

Installs the tracer, runs `dybax.cli.main(ARGV)` exactly as `python -m
dybax.cli ARGV` would, writes the span aggregates to SIDE_FILE and exits
with the command's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


def main():
    side, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: clirunner.py SIDE_FILE -- ARGV...")
    tracer = tracing.install(tracing.Tracer())
    from dybax import cli
    tracer.start()
    try:
        code = cli.main(argv)
    finally:
        tracer.stop()
        with open(side, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans(), "cache": tracer.cache_info(),
                       "wrapped": tracing.wrappers_present()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
