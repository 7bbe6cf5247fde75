"""Fixed reference work that measures the machine, not rainrule.

The machine's speed drifts by up to about 1.6x over seconds to minutes, so
a wall time alone moves by a quarter between runs of the same code.  The
benchmark therefore times this fixed work right next to what it measures
and reports each timing at a nominal machine speed (see
``bench.Call.nominal_s`` and ``bench.Stream``).  Nothing here imports
rainrule, so a change to the program never changes these times; only the
machine's speed does.

* Run as a program, it is the reference child: it does what a CLI call
  does, on a fixed input that no seed can alter -- start Python, import
  numpy, decode JSON ball records, walk them in Python and fit a small
  polynomial.  The benchmark runs it through the launcher before the first
  CLI call of a measured pass and after every call.  It exits 0 after
  checking its own result.
* ``spin`` is the in-process reference: small dicts, float arithmetic and
  rounding, like one revision, timed around each chunk of the in-process
  revision loop.
"""

import json
import sys

import numpy as np

MATCHES = 12
BALLS = 300
SPIN_ROUNDS = 100


def spin() -> float:
    """A fixed amount of revision-like Python work; returns a checksum."""
    total = 0.0
    for i in range(SPIN_ROUNDS):
        doc = {"format": "odi", "n": i % 250, "m": (i * 7) % 250 + 25, "N": 300,
               "target_score": 200 + i % 90, "more_intervals": [[i % 40, i % 40 + 9]]}
        n, m, N = doc["n"], doc["m"], doc["N"]
        a, b, c = -1.2e-5 + i * 1e-9, 3.1e-3, 0.42
        full = N * N * (N * (3 * a * N + 4 * b) + 6 * c) / 12
        lost = 0.0
        for s, e in [(n, m)] + [tuple(p) for p in doc["more_intervals"]]:
            lost += 3 * a * (e**4 - s**4) + 4 * b * (e**3 - s**3) + 6 * c * (e**2 - s**2)
        ratio = 1.0 - lost / 12 / full
        out = {"resource_ratio": round(ratio, 6),
               "revised_total": int(doc["target_score"] * ratio),
               "intervals": len(doc["more_intervals"]) + 1}
        total += out["resource_ratio"] + out["revised_total"]
    return total


def main() -> int:
    balls = [
        {"over": i // 6, "ball": i % 6 + 1, "batter": f"b{i % 11}", "runs": {
            "batter": (i * 7) % 5, "extras": int(i % 13 == 0), "total": (i * 7) % 5 + int(i % 13 == 0)
        }, "wicket": i % 37 == 0}
        for i in range(BALLS)
    ]
    text = json.dumps({"innings": [{"deliveries": balls}] * 2})
    totals = []
    for _ in range(MATCHES):
        doc = json.loads(text)
        for innings in doc["innings"]:
            runs, wickets, curve = 0, 0, []
            for d in innings["deliveries"]:
                runs += d["runs"]["total"]
                wickets += d["wicket"]
                curve.append(runs - 0.5 * wickets)
            totals.append(curve)
    x = np.arange(1, BALLS + 1, dtype=float)
    y = np.mean(np.asarray(totals), axis=0)
    coef = np.polyfit(x, y, 3)
    return 0 if abs(np.polyval(coef, BALLS) - y[-1]) < 0.05 * y[-1] else 1


if __name__ == "__main__":
    sys.exit(main())
