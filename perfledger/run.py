"""The layered performance ledger of the ``sst`` CLI and ``sst serve``.

Usage, from the root of a checkout::

    python3 perfledger/run.py --workload serve-hot --seed 1 --seconds 30 \\
        --trace 0

Workloads: ``serve-hot`` (a live ``sst serve`` answering a hot set from
its in-memory cache) and ``serve-store`` (``sst serve`` over a
20k-concept store, nearly every pair a cache miss); ``BENCHMARK.json``
says why each was chosen.  ``layers.py`` says which layer row should
move which end-to-end metric on which workload.

Every answer of a timed phase is checked against an oracle computed
with both cache tiers off and the naive engine.  Human-readable lines
(with sample counts, the tail percentile used, ``error_rate`` and the
host-drift probes) go first; the last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer rows with
``--trace 1``).
"""

import argparse
import json
import os
import sys
from pathlib import Path

import measure
from layers import LAYERS
from workloads import WORKLOADS, Context

#: The gated metrics.  Central latency is gated as the mean, and the
#: median is printed beside it.  On a shared host the same op runs at
#: one of two speeds, switching every few seconds; the median of a
#: timed phase then jumps from one level to the other once about half
#: of its ops ran slow, while the mean moves in proportion to that share.
#: A change to the program moves both alike.
END_TO_END = [
    ("setup_s", "s"),
    ("mean_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
]


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    arguments = _arguments(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfledger: run from the root of a checkout of the program "
              "(no src/repro/cli.py here)", file=sys.stderr)
        return 2
    context = Context(root, arguments.seed, arguments.seconds,
                      bool(arguments.trace))
    try:
        context.prime()
        before = measure.host_probe()
        context.mark("host-probe")
        result = WORKLOADS[arguments.workload](context)
        after = measure.host_probe()
        context.mark("host-probe")
    finally:
        context.close()

    metrics = result["metrics"]
    print(f"workload {arguments.workload} seed {arguments.seed}: "
          f"{result['samples']['ops']} timed ops, "
          f"{result['samples']['setup_s']} set-ups")
    for name, unit in END_TO_END + [("p50_ms", "ms"),
                                    ("error_rate", "ratio")]:
        print(f"  {name:<14} {metrics[name]:12.4f} {unit}")
    print(f"  tail_ms is p{result['tail_pct']:.1f} of "
          f"{result['samples']['ops']} samples")
    steal_pct = 100.0 * (after["steal_s"] - before["steal_s"]) / (
        (after["at"] - before["at"]) * (os.cpu_count() or 1))
    print("  host drift: loop {0:.2f}/{1:.2f} ms, spawn {2:.1f}/{3:.1f} ms "
          "(before/after), {4:.1f}% of CPU time stolen by the hypervisor"
          .format(before["loop_ms"], after["loop_ms"], before["spawn_ms"],
                  after["spawn_ms"], steal_pct))
    print(json.dumps({"context": {
        "workload": arguments.workload, "seed": arguments.seed,
        "samples": result["samples"], "tail_pct": result["tail_pct"],
        "loadgen_cpu_ms_per_op": result.get("loadgen_cpu_ms_per_op"),
        "error_rate": metrics["error_rate"],
        "wrong_answers": result["wrong"],
        "host_before": before, "host_after": after,
        "host_steal_pct": steal_pct,
        "phase_seconds": context.phases}}))
    if arguments.trace:
        rows = result["layers"]
        rows["host.loop_ms"] = (before["loop_ms"] + after["loop_ms"]) / 2
        rows["host.spawn_ms"] = (before["spawn_ms"] + after["spawn_ms"]) / 2
        for name, unit, _, moves, on in LAYERS:
            print(f"  {name:<28} {rows[name]:12.4f} {unit:<6} "
                  f"moves {moves} on {on}")
        print("  per-op self times (start-up rows are per boot) plus "
              "{0:.1f}% unexplained make up the traced mean op of "
              "{1:.2f} ms; untraced mean {2:.2f} ms".format(
                  rows["trace.unexplained_pct"], rows["trace.wall_ms"],
                  metrics["mean_ms"]))
        reported = {name: {"value": rows[name], "unit": unit}
                    for name, unit, *_ in LAYERS}
    else:
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END}
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
