"""Repeat benchmark runs and summarise each metric over them.

    python3 perfbench/report.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                                [--trace 0|1] [--same-seed]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...; with
--same-seed every run uses first-seed), one run at a time, from the
checkout root.  For every workload and metric it prints the median, the
quartiles (statistics.quantiles, n=4), the spread (interquartile range
over the median) and, for end-to-end metrics, whether the spread is below
a third of the metric's bound in BENCHMARK.json.  For counts of a traced
run it says whether they repeated exactly.  Raw results are saved to
.bench_out/report-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    units = {m["name"]: m["unit"] for m in declared}

    results: dict[str, list[dict]] = {}
    ok = True
    for workload in workloads:
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            took = time.monotonic() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"], res["took_s"] = seed, took
            results.setdefault(workload, []).append(res)
            print(f"{workload} seed {seed}: {took:.1f} s, correct={res['correct']}, "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)

    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, {sum(r['took_s'] for r in runs):.0f} s")
        for name in units:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            line = (f"  {name}: median {med:.6g} {units[name]}, quartiles {q1:.6g} .. {q3:.6g}, "
                    f"spread {spread:.4f}")
            if bounds[name] is not None:
                steady = spread < bounds[name] / 3 or name == "setup_s"
                ok &= steady
                line += f", bound {bounds[name]} -> {'steady' if steady else 'NOT STEADY'}"
            elif units[name] != "s":
                line += ", repeats exactly" if len(set(values)) == 1 else ", VARIES"
            print(line)
    out = root / ".bench_out" / f"report-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\nraw results: {out.relative_to(root)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
