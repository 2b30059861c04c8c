"""Run the towerdecomp CLI under the benchmark's tracer.

    python3 perfbench/cli_launcher.py <spans.json> <towerdecomp arguments>

Installs the wrappers, calls towerdecomp.cli.main, writes the spans and the
cancels made outside any span to <spans.json>, and exits with main's code.
towerdecomp must be importable (PYTHONPATH=src).
"""

import json
import sys

import tracing


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    import towerdecomp.cli

    try:
        code = towerdecomp.cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "loose_cancels": tracer.loose_cancels.get(None, 0)}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
