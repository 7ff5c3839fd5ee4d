"""Compare two sets of runs under the benchmark's own bounds.

    python3 benchmarks/e2e/compare.py a.json b.json

``a.json`` (the parent) and ``b.json`` (the change) are files written by
``run.py --out``; each should hold at least two untraced runs per
workload (ten, for a claim).  For every end-to-end metric on every
workload one row is printed with both medians, both run-to-run spreads
(interquartile distance over the median) and a verdict from
``BENCHMARK.json``'s bound:

``better`` / ``worse``   the medians differ by more than the bound
``same``                 they do not
``unresolved``           a side's spread is wider than the bound, or it
                         has fewer than two runs: the pairing cannot be
                         called unchanged

A cell marked ``alias`` repeats the workload's own operation under
another family's name (README, "Alias cells"); its verdict carries no
information of its own.  Exit status 1 when any row is ``worse`` or
``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys

import spec


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced, full-size runs by workload."""
    with open(path) as fh:
        doc = json.load(fh)
    runs: dict[str, list[dict]] = {}
    for run in doc["runs"]:
        if not run["trace"] and not run["smoke"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def compare(a: dict, b: dict, bench: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            va = values(a.get(workload, []), m["name"])
            vb = values(b.get(workload, []), m["name"])
            if not va or not vb:
                continue
            med_a, med_b = statistics.median(va), statistics.median(vb)
            rows.append(
                {
                    "workload": workload,
                    "metric": m["name"],
                    "unit": m["unit"],
                    "alias": workload not in spec.NATIVE[m["name"]],
                    "n": (len(va), len(vb)),
                    "median": (med_a, med_b),
                    "spread": (spec.spread(va), spec.spread(vb)),
                    "worsening": spec.worsening(med_a, med_b, m["better"]),
                    "bound": m["bound"],
                    "verdict": spec.verdict(va, vb, m["better"], m["bound"]),
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    header = (
        f"{'workload':<13} {'metric':<20} {'parent':>12} {'change':>12} "
        f"{'worse by':>9} {'spread a/b':>13} {'bound':>6}  verdict"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['workload']:<13} {r['metric']:<20} {r['median'][0]:>12.5g} "
            f"{r['median'][1]:>12.5g} {100 * r['worsening']:>8.2f}% "
            f"{100 * r['spread'][0]:>5.1f}%/{100 * r['spread'][1]:>5.1f}% "
            f"{100 * r['bound']:>5.1f}%  {r['verdict']}"
            + (" (alias)" if r["alias"] else "")
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), spec.load_benchmark())
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    print(f"{len(rows)} rows, {len(bad)} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
