#!/usr/bin/env python3
"""Compares two sets of rfidbench results, using only the standard library.

    compare.py BASE_DIR CHANGE_DIR          verdict per workload and metric
    compare.py --same SET1_DIR SET2_DIR     agreement check for one commit
    compare.py --table BASE_DIR CHANGE_DIR  the same report as Markdown
    compare.py --layers DIR|FILE [--table]  per-layer summary of traced runs

Each directory holds the per-run result files rfidbench writes
(<workload>-seed<n>.json). For every workload and metric the report gives
each side's median and quartiles, the fraction of pairs the change won
(pairs match by seed when the sets share seeds, else every cross pair;
ties count for neither) and a verdict against the bounds in BENCHMARK.json:

  improved    the change wins at least 9 in 10 pairs and the medians differ
              by more than the base's own quartile spread
  regressed   the change's median is worse than the base's by more than
              the metric's bound
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, unless every change run beats every
              base run
  unchanged   otherwise

Metrics without a bound in BENCHMARK.json (the workload-specific ones a
result file lists under "extra") are reported with their statistics and
no verdict. --same exits 1 if any bounded metric is regressed or
unresolved in either direction. --layers merges the per-layer summaries
(<workload>-seed<n>.trace.layers.json) into one JSON document, or with
--table renders each layer's share of request time.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_results(directory):
    """workload -> list of untraced result dicts."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-seed*.json"))):
        if path.endswith(".layers.json") or path.endswith(".chrome.json"):
            continue
        with open(path) as f:
            result = json.load(f)
        if result.get("trace") or "metrics" not in result:
            continue
        runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_values(runs, name):
    by_seed = {}
    for r in runs:
        for section in ("metrics", "extra"):
            if name in r.get(section, {}):
                by_seed[r["seed"]] = r[section][name]["value"]
    return by_seed


def better(a, b, direction):
    """True when b is better than a."""
    return b < a if direction == "lower" else b > a


def compare_metric(base, change, direction, bound):
    """Statistics and verdict for one metric; base/change map seed -> value."""
    a, b = list(base.values()), list(change.values())
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    shared = sorted(set(base) & set(change))
    pairs = ([(base[s], change[s]) for s in shared] if shared else
             [(x, y) for x in a for y in b])
    wins = sum(1 for x, y in pairs if better(x, y, direction))
    won = wins / len(pairs)
    row = {"base": (a1, am, a3), "change": (b1, bm, b3), "won": won,
           "delta": (bm - am) / am if am else 0.0, "verdict": "-"}
    if bound is None:
        return row
    worse = (bm - am) / am if direction == "lower" else (am - bm) / am
    spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
    all_better = all(better(x, y, direction) for x in a for y in b)
    if spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regressed"
    elif won >= 0.9 and abs(bm - am) > (a3 - a1):
        row["verdict"] = "improved"
    else:
        row["verdict"] = "unchanged"
    return row


def report(base_runs, change_runs, spec):
    """Yields (workload, metric, unit, row) for every comparable metric."""
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted(set(base_runs) & set(change_runs)):
        names = []
        for r in base_runs[workload] + change_runs[workload]:
            for section in ("metrics", "extra"):
                for n in r.get(section, {}):
                    if n not in names:
                        names.append(n)
        for name in sorted(names, key=lambda n: (n not in bounded, n)):
            base = metric_values(base_runs[workload], name)
            change = metric_values(change_runs[workload], name)
            if not base or not change:
                continue
            m = bounded.get(name)
            direction = m["better"] if m else _extra_direction(name)
            unit = m["unit"] if m else _unit_of(base_runs[workload], name)
            row = compare_metric(base, change, direction,
                                 m["bound"] if m else None)
            yield workload, name, unit, row


def _extra_direction(name):
    return "higher" if name.endswith("_per_s") else "lower"


def _unit_of(runs, name):
    for r in runs:
        for section in ("metrics", "extra"):
            if name in r.get(section, {}):
                return r[section][name]["unit"]
    return ""


def fmt(v):
    return f"{v:.4g}"


def print_report(rows, table):
    header = ["workload", "metric", "unit", "base median [q1, q3]",
              "change median [q1, q3]", "change", "pairs won", "verdict"]
    lines = []
    for workload, name, unit, row in rows:
        a1, am, a3 = row["base"]
        b1, bm, b3 = row["change"]
        lines.append([workload, name, unit,
                      f"{fmt(am)} [{fmt(a1)}, {fmt(a3)}]",
                      f"{fmt(bm)} [{fmt(b1)}, {fmt(b3)}]",
                      f"{100 * row['delta']:+.1f}%",
                      f"{100 * row['won']:.0f}%", row["verdict"]])
    if table:
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
        for line in lines:
            print("| " + " | ".join(line) + " |")
        return
    widths = [max(len(x) for x in col) for col in zip(header, *lines)]
    for line in [header] + lines:
        print("  ".join(x.ljust(w) for x, w in zip(line, widths)).rstrip())


def merge_layers(path):
    """A directory of per-run layer files, or an already merged file such as
    results/seed-layers.json."""
    if os.path.isfile(path):
        with open(path) as f:
            return json.load(f)
    merged = {}
    for file in sorted(glob.glob(os.path.join(path, "*.layers.json"))):
        with open(file) as f:
            summary = json.load(f)
        merged[summary["workload"]] = summary
    return merged


def print_layers(merged):
    layers = sorted({l for s in merged.values() for l in s["layers"]})
    print("| workload | requests | " + " | ".join(layers) + " |")
    print("|" + "---|" * (len(layers) + 2))
    for workload, s in sorted(merged.items()):
        cells = []
        for l in layers:
            layer = s["layers"].get(l)
            cells.append(f"{layer['share_pct']:.1f}% "
                         f"({fmt(layer['self_ms_p50'])} ms)" if layer else "-")
        print(f"| {workload} | {s['requests']} | " + " | ".join(cells) + " |")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dirs", nargs="+")
    parser.add_argument("--same", action="store_true")
    parser.add_argument("--table", action="store_true")
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = parser.parse_args()

    if args.layers:
        merged = merge_layers(args.dirs[0])
        if args.table:
            print_layers(merged)
        else:
            print(json.dumps(merged, indent=1, sort_keys=True))
        return 0

    if len(args.dirs) != 2:
        parser.error("expected BASE_DIR CHANGE_DIR")
    with open(args.benchmark) as f:
        spec = json.load(f)
    base_runs, change_runs = (load_results(d) for d in args.dirs)
    if not set(base_runs) & set(change_runs):
        print("no workload has results in both directories", file=sys.stderr)
        return 2
    rows = list(report(base_runs, change_runs, spec))
    print_report(rows, args.table)
    if not args.same:
        return 0
    reverse = list(report(change_runs, base_runs, spec))
    bad = sorted({(w, n, r["verdict"]) for w, n, _, r in rows + reverse
                  if r["verdict"] in ("regressed", "unresolved")})
    for w, n, verdict in bad:
        print(f"disagreement: {w} {n} {verdict}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
