"""Rewrite reference_digests.json from the current source tree.

    python3 perfbench/update_references.py

Runs every workload once at the default seed and records the digest of
its corpus and of each CLI call's output files.  The CLI's outputs are
documented as byte-identical across runs, so do this only when a change
is meant to alter them, and say so where the change is described.
"""

import json
import sys
from pathlib import Path

from run import DEFAULT_SEED, REFERENCES, ROOT


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    from workloads import SPECS

    digests = {}
    for name, spec in SPECS.items():
        result = bench.run_workload(spec, DEFAULT_SEED, seconds=0, trace=False)
        if result.failed:
            for failure in result.failures[:20]:
                print(f"failure: {failure}", file=sys.stderr)
            return 1
        digests[name] = dict(sorted(result.digests.items()))
        print(f"{name}: {len(digests[name])} digests")
    REFERENCES.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
