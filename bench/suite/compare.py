#!/usr/bin/env python3
"""Compare two benchmark results against the bounds in BENCHMARK.json.

    python3 bench/suite/compare.py base.json new.json

Both files are written by `run.py --out`; give run.py `--repeat R` (R >= 2)
to record the spread between invocations.  Prints one row per workload and
metric: the two medians, the change (positive = worse), the bound, the
spread and a verdict:

  ok          not worse than the base by more than the bound
  REGRESSION  worse by more than the bound, and the spread is within it
  unresolved  the spread (IQR / median over invocations, either side) is
              wider than the bound, unless every new invocation reads better
              than every base invocation; also whenever either file holds a
              single invocation, whose spread is unknown
  info        a per-layer metric (no bound)

A change smaller than a metric's absolute floor (ABS_FLOOR, in the metric's
unit) is never a regression: setup_s is a few microseconds on some
workloads, where a relative bound alone would flag allocator noise.

Exits 1 if any row is a REGRESSION or any run in the new file failed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
ABS_FLOOR = {"setup_s": 0.005}


def values(result, workload, metric):
    out = []
    for inv in result["invocations"]:
        m = inv.get(workload, {}).get("metrics", {}).get(metric)
        if m is not None:
            out.append(m["value"])
    return out


def spread(vals):
    if len(vals) < 2:
        return None
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else None


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = (json.loads(Path(p).read_text()) for p in argv[1:])

    bad = False
    for inv in new["invocations"]:
        for w, r in inv.items():
            if not r["correct"]:
                bad = True
                print(f"{w}: new run failed: {'; '.join(r['failures'])}")

    print(f"{'workload':18} {'metric':24} {'base':>12} {'new':>12} {'change':>8} "
          f"{'bound':>8} {'spread':>7}  verdict")
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        for name, m in spec.items():
            b, n = values(base, w, name), values(new, w, name)
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            lower = m["better"] == "lower"
            change = ((nm - bm) if lower else (bm - nm)) / abs(bm) if bm else 0.0
            bound = m.get("bound")
            shown = "-" if bound is None else f"{100 * bound:.0f}%"
            if bound is not None and bm and ABS_FLOOR.get(name, 0) / abs(bm) > bound:
                bound = ABS_FLOOR[name] / abs(bm)
                shown = f"{ABS_FLOOR[name]:g} {m['unit']}"
            spreads = [spread(b), spread(n)]
            sp = None if None in spreads else max(spreads)
            if bound is None:
                verdict = "info"
            elif sp is None or (sp > bound and not (
                    (max(n) < min(b)) if lower else (min(n) > max(b)))):
                verdict = "unresolved"
            elif change > bound:
                verdict = "REGRESSION"
                bad = True
            else:
                verdict = "ok"
            print(f"{w:18} {name:24} {bm:12.6g} {nm:12.6g} {100 * change:7.1f}% "
                  f"{shown:>8} "
                  f"{'-' if sp is None else f'{100 * sp:.1f}%':>7}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
