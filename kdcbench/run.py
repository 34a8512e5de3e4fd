"""kDC benchmark: one command, three workloads, every answer checked.

Run from the root of a checkout (pure Python, nothing to build)::

    python3 kdcbench/run.py --workload dense-search --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``kdcbench/README.md``):

* ``dense-search`` — ten Facebook-style community graphs x k in {1, 3, 5},
  solved from edge-list file to a proven optimum in one child process;
* ``sparse-scale`` — a Holme–Kim and a G(n, m) graph with ~10^5 edges x
  k in {1, 3}, run the same way;
* ``service-mix`` — a closed loop of two clients against a ``repro serve``
  daemon: repeat solves, first-touch solves and mutate-then-solve updates.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see ``layers.py``).  The lines before it are a
human-readable report.  The exit code is 0 only when the run completed,
whether or not every answer was correct (``"correct"`` says that).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from typing import Dict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dense-search", "sparse-scale", "service-mix")
#: (name, unit) of every end-to-end metric, as in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("tto_total_s", "s"),
    ("tto_geomean_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 1e308


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value * 1000.0:.3f} ms" if math.isfinite(value) else "inf"


def _report_solve(result: Dict) -> None:
    import stats

    print(f"rounds: {result['rounds']} in {result['window_s']:.1f} s")
    print(f"{'cell':<20}{'median tto':>14}{'samples':>9}")
    for cell in sorted(result["tally"].samples):
        if cell.startswith("traced:"):
            continue
        values = result["tally"].samples[cell]
        print(f"{cell:<20}{_fmt(stats.median(values)):>14}{len(values):>9}")


def _report_service(result: Dict) -> None:
    import stats

    samples = result["tally"].samples
    hit = stats.tail(samples.get("hit", []))
    print(f"hit_p50_ms: {_fmt(hit['p50'])}  "
          f"hit_p{hit['tail_q']}_ms: {_fmt(hit['tail'])}  (n={hit['n']})")
    for cls in ("miss", "update"):
        values = samples.get(cls, [])
        p50 = stats.percentile(values, 50.0) if values else None
        print(f"{cls}_p50_ms: {_fmt(p50)}  {cls}_p90_ms: "
              f"{_fmt(stats.named_percentile(values, 90.0))}  (n={len(values)})")
    print(f"restart_s: {result['restart_s']:.3f} s  "
          f"(restored graphs/results/deltas checked against the drained daemon)")
    served = result["stats"]
    print(f"service: requests={served['requests']} cache_hits={served['cache_hits']} "
          f"mutations={served['mutations']} incremental_hits={served['incremental_hits']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, BENCH_DIR)
    import solve_workloads
    import service_mix

    with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    work = os.path.abspath(os.path.join(".kdcbench_work", f"{args.workload}-{os.getpid()}"))
    os.makedirs(work)
    traced = bool(args.trace)
    try:
        if args.workload == "service-mix":
            result = service_mix.run(args.seed, args.seconds, traced, work, golden)
        else:
            result = solve_workloads.run(args.workload, args.seed, args.seconds, traced, work,
                                         golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still uses it
            pass

    tally = result["tally"]
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    if args.workload == "service-mix":
        _report_service(result)
    else:
        _report_solve(result)
    print(f"failed_frac: {tally.failed_frac():.4f} ({tally.failed} of {tally.attempted} attempted)")
    for cls, reason in tally.failures[:20]:
        print(f"  FAILED {cls}: {reason}")

    if traced:
        import layers

        values = result["layers"]
        metrics = {name: {"value": _finite(values[name]), "unit": unit}
                   for name, unit, _better in layers.METRICS}
        print(f"{'per-layer metric':<30}{'value':>16}  unit")
        for name, unit, _better in layers.METRICS:
            print(f"{name:<30}{values[name]:>16.6g}  {unit}")
    else:
        metrics = {name: {"value": _finite(result[name]), "unit": unit}
                   for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{name}: {result[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
