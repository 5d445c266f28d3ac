"""Run ``actinv.cli`` in this fresh interpreter with every layer traced.

Usage: ``python perfbench/cli_traced.py SPANS_JSON [actinv arguments...]``.
Behaves like ``python -m actinv.cli [arguments...]`` (same output and exit
code) and writes the recorded spans to SPANS_JSON at exit.  The import of
``actinv.cli`` is recorded as a span named ``cli.import``.
"""
import importlib
import sys

from tracer import Recorder


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    cli = recorder.wrap("cli.import", importlib.import_module)("actinv.cli")
    recorder.install()
    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
