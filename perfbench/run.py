"""strata-lab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a strata-lab checkout; the package is imported from
./src, never from an installed copy.  Workloads (see BENCHMARK.json):

* cli-cache: `strata-lab enumerate --n 8 --k 0`, `betti --n 7` and
  `betti --n 8 --k 3`, each a `python3 -m strata_lab.cli` subprocess (the
  entry point of the `strata-lab` script), against an empty private
  --cache-dir (cold pass), then the same three again (warm pass).
* filtration-n8: graded_dims(8,3), character_homology(8,3) and
  character_graded(8,3,3) in one fresh library worker.
* pairs-n8: verify_relations_killed(8,k) for k = 2..4, rewrite_to_standard
  on every level-2 tree at n = 8, verify_forgetful_square(8,k,b) for
  k = 3, 4.

run.py is one process with no threads and runs one worker at a time:
a closed loop with one client.  With --trace 0 it runs whole query
lists, each in a fresh worker, until --seconds have passed (at least
one), and reports the medians.  Set-up is the median of several fresh
interpreters importing strata_lab, sampled before the first list and
after each one.  With --trace 1 it runs one traced list (for cli-cache
after an untraced one, whose stdout the traced commands must reproduce)
and reports the per-layer metrics of the traced list.  trace.overhead_s is the time the tracer spent in its own wrappers,
measured inside them; trace.wall_s is the traced list's wall time.  The
spans go to .bench_out/trace-WORKLOAD-seedN.json.

Every output is checked against an oracle (perfbench/oracles.py).  An
operation fails when it raises, exits non-zero or disagrees with its
oracle; `correct` is false when any output disagrees.  Known defect:
rewrite_to_standard raises on 280 level-2 trees at (8,2); pairs-n8 keeps
those trees and counts them as failed.

The last line of stdout is the JSON result; the lines before it name
every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
# set-up samples taken before the first list and again after every list:
# host speed drifts over tens of seconds, so samples from one moment alone
# would all share that moment's speed
SETUP_SAMPLES = 5
RUN_LIMIT_S = 175
CLI_COMMANDS = (
    ("enumerate", "--n", "8", "--k", "0"),
    ("betti", "--n", "7"),
    ("betti", "--n", "8", "--k", "3"),
)
CLI_CHECKS = (
    lambda out: oracles.check_enumerate(out, 8),
    lambda out: oracles.check_betti_table(out, 7, list(range(5))),
    lambda out: oracles.check_betti_table(out, 8, [3]),
)
N8K3_COMMAND = 2  # index in CLI_COMMANDS of the command that eliminates only (8,3)
# ROADMAP baseline for the natural-order (8,3) echelon, at every prime
N8K3_BASELINE = {"rows_in": 4452, "rank": 1203, "fill": 34417}


class BenchError(RuntimeError):
    """The benchmark could not run: no checkout, a worker crashed, or time ran out."""


def _alarm(signum, frame):
    raise TimeoutError


class Runner:
    """Starts workers one at a time under one deadline for the whole run."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.scratch = root / ".bench_out"
        self.scratch.mkdir(exist_ok=True)
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("STRATA_CACHE_DIR", "PYTHONOPTIMIZE", "PYTHONPATH")
        }
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def tempdir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.scratch))

    def spawn(self, argv: list[str], stdout: Path) -> tuple[int, int]:
        """Run argv to completion; return its exit code and peak RSS in KiB."""
        left = int(self.deadline - time.monotonic())
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            old = signal.signal(signal.SIGALRM, _alarm)
            signal.alarm(left)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException as exc:  # timeout or termination: end the child first
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                if isinstance(exc, TimeoutError):
                    raise BenchError(f"run exceeded {RUN_LIMIT_S} s in {argv[1:]}") from None
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, old)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def setup_sample(self, make_cache_dir: bool) -> float:
        """A fresh interpreter importing strata_lab (and an empty cache dir)."""
        tmp = self.tempdir()
        start = time.perf_counter()
        if make_cache_dir:
            (tmp / "cache").mkdir()
        code, _ = self.spawn([sys.executable, "-c", "import strata_lab"], tmp / "import.out")
        elapsed = time.perf_counter() - start
        shutil.rmtree(tmp)
        if code != 0:
            raise BenchError("python -c 'import strata_lab' failed")
        return elapsed

    def library_list(self, workload: str, traced: bool) -> dict:
        tmp = self.tempdir()
        out = tmp / "result.json"
        argv = [sys.executable, str(HERE / "worker.py"), "library", workload,
                "--seed", str(self.seed), "--out", str(out)]
        if traced:
            argv.append("--trace")
        code, rss = self.spawn(argv, tmp / "worker.out")
        if code != 0 or not out.exists():
            err = (tmp / "worker.err").read_text()[-2000:]
            shutil.rmtree(tmp)
            raise BenchError(f"{workload} worker exited {code}:\n{err}")
        res = json.loads(out.read_text())
        shutil.rmtree(tmp)
        res["peak_rss_kib"] = rss
        res["traces"] = [res.pop("trace")] if traced else []
        res["n8k3_traces"] = res["traces"]
        return res

    def cli_list(self, traced: bool, reference: dict | None = None) -> dict:
        """Cold then warm pass of the CLI commands against a new cache dir."""
        tmp = self.tempdir()
        cache = tmp / "cache"
        cache.mkdir()
        attempted = failed = 0
        wrong: list[str] = []
        raised: list[str] = []
        traces, n8k3_traces, stdouts = [], [], {}
        passes, process_start, peak = {}, 0.0, 0
        start = time.perf_counter()
        for pass_name in ("cold", "warm"):
            pass_start = time.perf_counter()
            for i, (cmd, check) in enumerate(zip(CLI_COMMANDS, CLI_CHECKS)):
                args = [*cmd, "--seed", str(self.seed), "--cache-dir", str(cache)]
                stdout = tmp / f"{pass_name}-{i}.out"
                trace_out = tmp / f"{pass_name}-{i}.trace"
                if traced:
                    argv = [sys.executable, str(HERE / "worker.py"), "cli",
                            "--out", str(trace_out), "--", *args]
                else:
                    argv = [sys.executable, "-m", "strata_lab.cli", *args]
                spawned = time.monotonic()
                code, rss = self.spawn(argv, stdout)
                peak = max(peak, rss)
                out = stdout.read_bytes()
                attempted += 1
                label = f"{pass_name} strata-lab {' '.join(cmd)}"
                if code != 0:
                    failed += 1
                    raised.append(f"{label}: exit {code}: "
                                  f"{stdout.with_suffix('.err').read_text()[-500:]}")
                    continue
                problems = check(out)
                if pass_name == "warm" and out != stdouts.get(("cold", i)):
                    problems.append(f"{label}: stdout differs from the cold pass")
                if reference is not None and out != reference["stdouts"].get((pass_name, i)):
                    problems.append(f"{label}: traced stdout differs from the untraced run")
                if problems:
                    failed += 1
                    wrong.extend(problems)
                stdouts[(pass_name, i)] = out
                if traced:
                    rec = json.loads(trace_out.read_text())
                    process_start += rec["ready"] - spawned
                    traces.append(rec["trace"])
                    if i == N8K3_COMMAND:
                        n8k3_traces.append(rec["trace"])
            passes[pass_name] = time.perf_counter() - pass_start
        wall = time.perf_counter() - start
        shutil.rmtree(tmp)
        return {
            "wall_s": wall, "attempted": attempted, "failed": failed,
            "raised": raised, "wrong": wrong, "peak_rss_kib": peak,
            "traces": traces, "n8k3_traces": n8k3_traces, "stdouts": stdouts,
            "cli": {
                "cli.cold_pass_s": passes["cold"], "cli.warm_pass_s": passes["warm"],
                "cli.process_start_s": process_start,
            },
        }

    def run_list(self, workload: str, traced: bool, reference: dict | None = None) -> dict:
        if workload == "cli-cache":
            return self.cli_list(traced, reference)
        return self.library_list(workload, traced)


def n8k3_echelons(traces: list[dict]) -> list[dict]:
    """Natural-order eliminations of the relation matrix in traces that only
    eliminate at (8,3): the ones started by homology or by rank_mod_p."""
    return [
        e for tr in traces for e in tr["eliminations"]
        if e["parent"] == "exact_linalg.rank_mod_p"
        or (e["parent"] or "").startswith("homology.")
    ]


def measure(runner: Runner, workload: str, seconds: int, lines: list[str]) -> tuple[dict, list]:
    def setup_samples() -> list[float]:
        return [runner.setup_sample(workload == "cli-cache") for _ in range(SETUP_SAMPLES)]

    setup = setup_samples()
    lists = []
    start = time.monotonic()
    while not lists or time.monotonic() - start < seconds:
        lists.append(runner.run_list(workload, traced=False))
        setup += setup_samples()
    walls = [r["wall_s"] for r in lists]
    attempted = sum(r["attempted"] for r in lists)
    failed = sum(r["failed"] for r in lists)
    med = statistics.median(walls)
    s1, smed, s3 = statistics.quantiles(setup, n=4)
    lines.append(f"wall_s: {med:.4f} s (median of {len(walls)} lists: "
                 f"{', '.join(f'{w:.4f}' for w in walls)})")
    lines.append(f"setup_s: {smed:.4f} s (median of {len(setup)} interpreters; quartiles {s1:.4f} .. {s3:.4f})")
    peak = max(r["peak_rss_kib"] for r in lists) / 1024
    lines.append(f"peak_rss_mb: {peak:.2f} MB (peak over {len(lists)} lists)")
    lines.append(f"failed_frac: {failed / attempted:.6f} ratio ({failed} failed of {attempted} operations)")
    lines.append(f"ok_frac: {1 - failed / attempted:.6f} ratio")
    metrics = {
        "wall_s": med,
        "setup_s": smed,
        "peak_rss_mb": peak,
        "ok_frac": 1 - failed / attempted,
    }
    return metrics, lists


def measure_traced(runner: Runner, workload: str, lines: list[str]) -> tuple[dict, list]:
    # the CLI's traced stdout is compared with an untraced run's; library
    # outputs are checked by their oracles in either mode
    lists = [runner.run_list(workload, traced=False)] if workload == "cli-cache" else []
    traced = runner.run_list(workload, traced=True, reference=lists[0] if lists else None)
    lists.append(traced)
    merged = tracing.merge(traced["traces"])
    echelons = n8k3_echelons(traced["n8k3_traces"])
    metrics = tracing.layer_metrics(merged, echelons)
    metrics.update(traced.get("cli") or {
        "cli.cold_pass_s": 0.0, "cli.warm_pass_s": 0.0, "cli.process_start_s": 0.0})
    metrics["trace.wall_s"] = traced["wall_s"]
    for e in echelons:
        have = {key: e[key] for key in N8K3_BASELINE}
        verdict = "matches" if have == N8K3_BASELINE else "differs from"
        lines.append(f"(8,3) natural-order echelon at p={e['prime']}: {have} "
                     f"{verdict} the ROADMAP baseline {N8K3_BASELINE}")
    spans = [
        {"worker": w, "id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
        for w, tr in enumerate(traced["traces"]) for s in tr["spans"]
    ]
    trace_file = runner.scratch / f"trace-{workload}-seed{runner.seed}.json"
    trace_file.write_text(json.dumps({"agg": merged["agg"], "spans": spans}))
    lines.append(f"spans: {len(spans)} written to {trace_file.relative_to(runner.root)}")
    return metrics, lists


def main(argv=None) -> int:
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    names = [w["name"] for w in spec.get("workloads", ())]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names or None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not names or not (root / "src" / "strata_lab" / "__init__.py").is_file():
        sys.stderr.write("run from the root of a strata-lab checkout "
                         "(needs BENCHMARK.json and src/strata_lab)\n")
        return 2

    # a terminated run still ends its worker (see Runner.spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(root, args.seed)
    lines: list[str] = []
    try:
        if args.trace:
            metrics, lists = measure_traced(runner, args.workload, lines)
            wanted = spec["per_layer"]
        else:
            metrics, lists = measure(runner, args.workload, args.seconds, lines)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        sys.stderr.write(f"metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json\n")
        return 1
    if args.trace:
        lines.extend(f"{name}: {metrics[name]} {unit}" for name, unit in units.items())
    attempted = sum(r["attempted"] for r in lists)
    failed = sum(r["failed"] for r in lists)
    wrong = [w for r in lists for w in r["wrong"]]
    raised = [x for r in lists for x in r["raised"]]
    for w in wrong[:20]:
        lines.append(f"WRONG {w}")
    for x in raised[:5]:
        lines.append(f"FAILED {x}")
    if wrong or raised:
        failures = runner.scratch / f"failures-{args.workload}-seed{args.seed}.json"
        failures.write_text(json.dumps({"wrong": wrong, "raised": raised}, indent=1))
        lines.append(f"FAILED {len(raised)} raised, {len(wrong)} wrong: all listed in "
                     f"{failures.relative_to(root)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
