"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload compress --seed 1 --seconds 15 \
        --trace 0

Run from the root of a checkout: the program is imported from
``src/``.  Every line but the last is a human-readable report; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    CLOCK, LAYERS, Tracer, median, stop_resource_tracker)

#: Metric names and units: the benchmark's definition file, at the root
#: of the checkout beside this directory.
DEFINITION = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_units():
    """``(end-to-end, per-layer)`` dicts of metric name -> unit."""
    with open(DEFINITION) as handle:
        definition = json.load(handle)
    return tuple({metric["name"]: metric["unit"]
                  for metric in definition[key]}
                 for key in ("end_to_end", "per_layer"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    source = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program source under {source}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    import workloads

    runner = workloads.WORKLOADS.get(args.workload)
    if runner is None:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_units()
    tracer = Tracer(bool(args.trace))
    run = workloads.Run(args.seed, args.seconds, tracer)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    start = time.perf_counter()
    try:
        with CLOCK.running(), tracer.span("bench.run"):
            runner(run)
    finally:
        # Every served phase has joined its router by now.
        stop_resource_tracker()
    wall = time.perf_counter() - start
    run.layer["bench.speed"] = median(CLOCK.speeds)
    for reason in run.tally.reasons:
        print(f"  FAILED: {reason}")

    if args.trace:
        self_s = tracer.self_seconds()
        for name in LAYERS + ("bench",):
            run.layer[f"{name}.self_s"] = self_s.get(name, 0.0)
        run.layer["trace.spans"] = len(tracer.spans)
        run.layer["trace.overhead_pct"] = (
            100 * len(tracer.spans) * Tracer.span_cost_ns() / 1e9 / wall)
        # A workload reports 0 for what it does not touch.
        measured, units = run.layer, layer_units
    else:
        for name, value in sorted(run.layer.items()):
            print(f"  {name:44s} {value:>14.6g} {layer_units[name]}")
        measured, units = run.e2e, e2e_units
    unknown = set(measured) - set(units)
    missing = set() if args.trace else set(units) - set(measured)
    if unknown or missing:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(unknown)}"
                           f"; not measured: {sorted(missing)}")
    metrics = {name: {"value": measured.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"  {name:44s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  checked {run.tally.attempted}, failed {run.tally.failed}, "
          f"wall {wall:.1f} s")
    print(json.dumps({"correct": run.tally.failed == 0,
                      "attempted": run.tally.attempted,
                      "failed": run.tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
