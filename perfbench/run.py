"""Benchmark of rainrule, run from the root of a checkout:

    python3 perfbench/run.py --workload odi-json-pipeline --seed 1 --seconds 12 --trace 0

It builds the workload's seeded synthetic corpus under ``.perfbench_work/``,
drives the CLI (``python -m rainrule.cli`` with ``PYTHONPATH=src``) one
child at a time, checks every output, prints a table of metrics with
their sample counts, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list,
with ``--trace 1`` its ``per_layer`` list; a traced run also writes its
spans to ``.perfbench_work/traces/``.  The workloads, metrics and seeds
are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
REFERENCES = Path(__file__).resolve().parent / "reference_digests.json"


def result_json(result, wanted: list[dict]) -> dict:
    """The final line: every wanted metric with its unit.

    A metric lost to a failure the result reports is left out; a metric
    missing otherwise is a benchmark bug and raises KeyError.
    """
    metrics = {}
    for entry in wanted:
        value = result.metrics.get(entry["name"])
        if value is None or not math.isfinite(value):
            if result.failed:
                continue
            raise KeyError(entry["name"])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rainrule" / "cli.py").is_file():
        print(f"error: no rainrule source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    from workloads import SPECS

    if args.workload not in SPECS:
        print(f"error: unknown workload {args.workload!r} (have: {', '.join(SPECS)})",
              file=sys.stderr)
        return 2
    references = None
    if args.seed == DEFAULT_SEED:
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))[args.workload]
    trace_file = ROOT / ".perfbench_work" / "traces" / f"{args.workload}-seed{args.seed}.json"
    result = bench.run_workload(
        SPECS[args.workload], args.seed, args.seconds, bool(args.trace),
        references=references, trace_file=trace_file if args.trace else None,
    )

    for line in result.lines:
        print(line)
    for failure in result.failures[:20]:
        print(f"failure: {failure}", file=sys.stderr)

    wanted = config["per_layer" if args.trace else "end_to_end"]
    try:
        print(json.dumps(result_json(result, wanted)))
    except KeyError as e:
        print(f"error: metric {e} was not measured", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
