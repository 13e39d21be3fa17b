"""Traced stand-in for ``python -m smilecal.cli``.

    python bench/child.py SPANS_FILE COMMAND [ARGS...]

Wraps the package's layers, runs the command, writes the spans to
SPANS_FILE and exits with the command's exit code.
"""

import sys

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from smilecal import cli

    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.write(sys.argv[1])
    sys.exit(code)
