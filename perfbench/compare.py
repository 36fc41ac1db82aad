"""Before/after table from two benchmark result files.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the lines that run.py --out appended, one per run. For
every workload and metric the table gives each side's median and
quartiles over its runs, the change of the medians, and whether the
change is within the bound that BENCHMARK.json fixes for the metric.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values, one per run."""
    out: dict[tuple[str, int], dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            result = json.loads(line)
            series = out.setdefault((result["workload"], result["trace"]), {})
            for name, value in result["metrics"].items():
                series.setdefault(name, []).append(float(value))
            series.setdefault("failed_ratio", []).append(float(result["failed_ratio"]))
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def table(before: dict, after: dict, bench: dict) -> list[str]:
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    lines = []
    for key in sorted(set(before) | set(after)):
        workload, trace = key
        b_series, a_series = before.get(key, {}), after.get(key, {})
        runs_b = len(next(iter(b_series.values()), []))
        runs_a = len(next(iter(a_series.values()), []))
        lines.append(f"{workload} (trace {trace}): {runs_b} runs before, {runs_a} after")
        lines.append(f"  {'metric':32s} {'before q1/median/q3':>32s} {'after q1/median/q3':>32s} "
                     f"{'change':>8s}  verdict")
        for name in sorted(set(b_series) | set(a_series)):
            cells = []
            for series in (b_series, a_series):
                if name in series:
                    q1, med, q3 = summary(series[name])
                    cells.append((f"{q1:.4g}/{med:.4g}/{q3:.4g}", med))
                else:
                    cells.append(("-", None))
            (b_text, b_med), (a_text, a_med) = cells
            change, verdict = "", ""
            if b_med is not None and a_med is not None and b_med != 0:
                rel = (a_med - b_med) / abs(b_med)
                change = f"{rel:+.1%}"
                m = spec.get(name)
                if m and "bound" in m:
                    worse = -rel if m["better"] == "higher" else rel
                    verdict = "WORSE than bound" if worse > m["bound"] else "within bound"
            lines.append(f"  {name:32s} {b_text:>32s} {a_text:>32s} {change:>8s}  {verdict}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    print("\n".join(table(load(args[0]), load(args[1]), bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
