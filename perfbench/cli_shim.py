"""Traced stand-in for the ``hybrid-sampler`` console script.

Usage: python3 perfbench/cli_shim.py SPANS_JSON [hybrid-sampler arguments]

Runs ``hybrid_sampler.cli.main`` exactly as the console script does, with
the tracer's rebinding installed, and writes the recorded spans to
SPANS_JSON.  The benchmark uses it for the cli jobs of a traced run only.
"""

import json
import sys

from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from hybrid_sampler import cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
