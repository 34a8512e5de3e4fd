"""Solve child: answers (edge-list file, k) cells from its standard input.

Run from the root of a checkout with ``PYTHONPATH=src``::

    python3 kdcbench/solve_child.py [--trace SPANS.json]

It prints ``{"ready": true, "cpu_s": ...}`` once the program is imported,
with the CPU seconds the process has used so far (its set-up cost), then
answers one JSON line per request:

* ``{"path": ..., "k": ...}`` — load the file, prepare, solve, reply with
  the answer, the program's ``SearchStats`` and the CPU seconds this
  process spent from the start of the load to the returned optimum
  (``tto_cpu_s``);
* ``{"op": "exit"}`` — reply with the peak RSS, write the spans (traced
  runs) and exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", default=None, metavar="SPANS.json")
    args = parser.parse_args()

    from repro.core import KDCSolver
    from repro.core import prepared as prepared_mod
    from repro.graphs import io as io_mod

    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)

    solver = KDCSolver()
    out = sys.stdout
    out.write(json.dumps({"ready": True, "cpu_s": time.process_time()}) + "\n")
    out.flush()
    for rid, line in enumerate(sys.stdin):
        request = json.loads(line)
        if request.get("op") == "exit":
            if recorder is not None:
                recorder.dump(args.trace)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out.write(json.dumps({"peak_rss_mb": rss_kb / 1024.0}) + "\n")
            out.flush()
            return 0
        if recorder is not None:
            recorder.set_request(rid)
        try:
            cpu_start = time.process_time()
            graph = io_mod.load_graph(request["path"])
            prepared = prepared_mod.prepare_instance(graph, request["k"])
            result = solver.solve_prepared(prepared)
            cpu_end = time.process_time()
            reply = {
                "ok": True,
                "size": result.size,
                "clique": list(result.clique),
                "optimal": result.optimal,
                "tto_cpu_s": cpu_end - cpu_start,
                "stats": result.stats.as_dict(),
            }
        except Exception as exc:  # noqa: BLE001 - every failure becomes a reply
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
