"""Run one ``tropkit`` CLI command with the span wrappers installed.

Usage: ``python perfbench/launcher.py <tropkit cli arguments>``, with the
library on ``PYTHONPATH``.  Stdout and the exit code are the CLI's own;
the spans go to stderr on one marked line after the command finishes.
"""

from __future__ import annotations

import sys

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    from tropkit import cli

    try:
        code = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        tracing.emit(tracer.export())
    return code


if __name__ == "__main__":
    sys.exit(main())
