"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmark/spread.py --workloads track map --seeds 1 2 3 4 5 \
        --out results.json [--trace 0] [--seconds 20]
    python3 benchmark/spread.py --compare set_a.json set_b.json

For every workload and metric it prints the median of the per-run values
and the distance between their first and third quartiles as a share of
that median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json.  Raw results are written to ``--out``.  Runs go
one after another, each in its own process.  ``--compare`` reads two such
files and prints, as a Markdown table, each set's median and spread and how
much worse the second median is than the first, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)`` of the per-run values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def compare(spec: dict, first: list, second: list) -> None:
    """Markdown table of two sets of runs of the end-to-end metrics."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print("| workload | metric | bound | first median | first spread | second median "
          "| second spread | second worse by |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, metric in metrics.items():
            sets = [[r["metrics"][name]["value"] for r in runs if r["workload"] == workload]
                    for runs in (first, second)]
            if not all(sets):
                continue
            (med_a, rel_a), (med_b, rel_b) = spread(sets[0]), spread(sets[1])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (med_b - med_a) / med_a if med_a else 0.0
            print(f"| {workload} | `{name}` | {metric['bound']} | {med_a:.4g} | {rel_a:.3f} "
                  f"| {med_b:.4g} | {rel_b:.3f} | {worse:+.3f} |")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(spec, *(json.loads(path.read_text(encoding="utf-8")) for path in args.compare))
        return 0
    if not args.seeds or args.out is None:
        parser.error("--seeds and --out are required unless --compare is given")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
    args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")

    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload]
        print(f"\n{workload}: {len(mine)} runs, wall {max(r['wall_s'] for r in mine):.1f} s max")
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            if any(v is None for v in values) or len(values) < 2:
                print(f"  {name:<28} (not every run has a value)")
                continue
            med, rel = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None else (
                "ok" if rel < bound / 3 else "WITHIN BOUND" if rel <= bound else "OVER BOUND")
            print(f"  {name:<28} median {med:<14.6g} spread {rel:8.4f}  "
                  f"bound {bound if bound is not None else '-'}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
