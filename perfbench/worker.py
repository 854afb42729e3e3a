"""Worker process of the benchmark: one query list, or one traced CLI command.

    python3 perfbench/worker.py library WORKLOAD --seed N --out FILE [--trace]
    python3 perfbench/worker.py cli --out FILE -- CLI-ARGS...

`library` runs a workload's query list through strata-lab's public
functions, checks every output against the oracles and writes the wall
time, the operation counts and, with --trace, the trace to FILE.  `cli`
calls strata_lab.cli.main(CLI-ARGS) under tracing, with stdout left to
the command; it writes when the interpreter was ready and the trace to
FILE and exits with the command's exit code.

The worker must be started from a fresh interpreter for every list:
strata-lab keeps lru_caches at module level that would make a second
list in the same process free.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import tracing  # noqa: E402


def filtration_n8(sl, seed: int):
    """Graded dimensions and characters at (8,3): three uses of the echelon."""
    n, k = 8, 3
    betti = oracles.keel_betti(n, k)
    p1, p2 = sl.cardinality_p1(n, k), sl.cardinality_p2(n, k)

    def graded():
        dims = sl.graded_dims(n, k, seed=seed)
        want = [p1, p2, betti - p1 - p2]
        return [] if dims == want else [f"graded_dims(8,3) = {dims}, want {want}"]

    def homology_character():
        dim = sl.character_homology(n, k, seed=seed).dim()
        return [] if dim == betti else [f"character_homology(8,3) has dim {dim}, want {betti}"]

    def top_character():
        dim = sl.character_graded(n, k, 3, seed=seed).dim()
        want = betti - p1 - p2
        return [] if dim == want else [f"character_graded(8,3,3) has dim {dim}, want {want}"]

    yield "graded_dims(8,3)", graded
    yield "character_homology(8,3)", homology_character
    yield "character_graded(8,3,3)", top_character


def pairs_n8(sl, seed: int):
    """The pair-map checks at n = 8; no elimination at all."""
    n = 8

    def killed(k):
        rep = sl.verify_relations_killed(n, k)
        if rep.failures or rep.max_residual != 0 or rep.relations == 0:
            return [f"verify_relations_killed(8,{k}): {len(rep.failures)} failures "
                    f"of {rep.relations}, max residual {rep.max_residual}"]
        return []

    def rewrite(t):
        sigma0, moves = sl.rewrite_to_standard(t)
        problems = []
        if sigma0 != sl.standard_tree(n, sl.w_map(t)):
            problems.append(f"rewrite of {t.to_json()} missed the standard tree")
        cur = t
        for mv in moves:
            cur = sl.apply_move(cur, mv)
        if cur != sigma0:
            problems.append(f"replaying the moves of {t.to_json()} does not end at its standard tree")
        return problems

    def square(k, b):
        rep = sl.verify_forgetful_square(n, k, b)
        if rep.mismatches or rep.checked == 0:
            return [f"verify_forgetful_square(8,{k},{b}): {len(rep.mismatches)} "
                    f"mismatches of {rep.checked}"]
        return []

    for k in (2, 3, 4):
        yield f"verify_relations_killed(8,{k})", lambda k=k: killed(k)
    level2 = [
        t for k in (2, 3, 4) for t in sl.enumerate_strata(n, k)
        if sl.filtration_level(t) == 2
    ]
    random.Random(seed).shuffle(level2)
    for t in level2:
        yield f"rewrite_to_standard {t.to_json()}", lambda t=t: rewrite(t)
    for k in (3, 4):
        for b in range(n - k - 3):
            yield f"verify_forgetful_square(8,{k},{b})", lambda k=k, b=b: square(k, b)


LISTS = {"filtration-n8": filtration_n8, "pairs-n8": pairs_n8}


def run_library(workload: str, seed: int, tracer) -> dict:
    import strata_lab as sl

    if tracer is not None:
        tracing.install(tracer)
    attempted = failed = 0
    raised: list[str] = []
    wrong: list[str] = []
    start = time.perf_counter()
    for label, op in LISTS[workload](sl, seed):
        attempted += 1
        try:
            problems = op()
        except Exception as exc:  # an operation that raises is counted, not fatal
            failed += 1
            where = traceback.extract_tb(exc.__traceback__)[-1]
            raised.append(f"{label}: {type(exc).__name__}: {exc} "
                          f"(at {Path(where.filename).name}:{where.lineno})")
            continue
        if problems:
            failed += 1
            wrong.extend(problems)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall, "attempted": attempted, "failed": failed,
        "raised": raised, "wrong": wrong,
    }


def run_cli(argv: list[str], out: Path) -> int:
    import strata_lab.cli

    ready = time.monotonic()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = strata_lab.cli.main(argv)
    finally:
        sys.stdout.flush()
        out.write_text(json.dumps({"ready": ready, "trace": tracer.export()}))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    lib = sub.add_parser("library")
    lib.add_argument("workload", choices=sorted(LISTS))
    lib.add_argument("--seed", type=int, required=True)
    lib.add_argument("--out", type=Path, required=True)
    lib.add_argument("--trace", action="store_true")
    cli = sub.add_parser("cli")
    cli.add_argument("--out", type=Path, required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_cli(argv, args.out)
    tracer = tracing.Tracer() if args.trace else None
    result = run_library(args.workload, args.seed, tracer)
    if tracer is not None:
        result["trace"] = tracer.export()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
