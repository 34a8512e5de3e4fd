"""Daemon launcher for traced ``service-mix`` runs.

Run from the root of a checkout with ``PYTHONPATH=src``::

    python3 kdcbench/serve_launcher.py SPANS.json serve --port 0 --state-dir DIR

It installs the span wrappers of :mod:`spans`, then hands the remaining
arguments to the program's normal CLI entry point, so the daemon is the same
single process an untraced run starts with ``python3 -m repro serve``.  The
spans are written to ``SPANS.json`` when the daemon exits after a drain.
"""

from __future__ import annotations

import atexit
import sys

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    import repro.cli
    import repro.service.persistence  # noqa: F401 - loaded lazily by the CLI
    import repro.service.server  # noqa: F401

    recorder = spans.SpanRecorder()
    spans.install(recorder)
    atexit.register(recorder.dump, path)
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
