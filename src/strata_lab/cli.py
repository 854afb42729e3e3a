"""Command-line driver: enumeration, tables, characters, verification.

Exit codes: 0 success, 1 verification failure (a failed check, or a
certification, rewrite, formula or half-integer error raised while
verifying), 2 domain error, 3 resource bound exceeded.  All output is
deterministic given --seed and the inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from pathlib import Path

from . import __version__
from .characters import cycle_type_key, partitions_of
from .conjecture import FormulaError, betti_formula, q_dim_formula
from .exact_linalg import RankCertificationError, rank_bareiss
from .homology import (
    betti,
    character_graded,
    character_homology,
    class_equal,
    graded_class_equal,
    graded_dims,
    inner_graded_dims,
    relation_matrix,
)
from .psets import character_pset
from .trees import DomainError, enumerate_strata, filtration_level
from .wtilde import (
    HalfIntegerError,
    RewriteError,
    apply_move,
    rewrite_to_standard,
    standard_tree,
    verify_forgetful_square,
    verify_relations_killed,
    w_map,
)

EXIT_OK, EXIT_FAIL, EXIT_DOMAIN, EXIT_RESOURCE = 0, 1, 2, 3


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n")


def _emit_table(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        for row in rows:
            _emit(row)
        return
    if not rows:
        return
    headers = list(rows[0])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=headers, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
        return
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in headers}
    sys.stdout.write("  ".join(h.ljust(widths[h]) for h in headers).rstrip() + "\n")
    for r in rows:
        sys.stdout.write(
            "  ".join(str(r[h]).ljust(widths[h]) for h in headers).rstrip() + "\n"
        )


def cmd_enumerate(args) -> int:
    for t in enumerate_strata(args.n, args.k):
        if args.min_r and filtration_level(t) < args.min_r:
            continue
        sys.stdout.write(t.to_json() + "\n")
    return EXIT_OK


def cmd_betti(args) -> int:
    from .cache import cached

    n, seed = args.n, args.seed
    if args.exact and n > 6:
        raise DomainError("exact audit elimination is limited to n <= 6")
    ks = [args.k] if args.k is not None else list(range(n - 2))
    rows = []
    for k in ks:
        if args.exact:
            b = len(enumerate_strata(n, k)) - rank_bareiss(relation_matrix(n, k))
        else:
            b = cached("betti", {"n": n, "k": k, "seed": seed},
                       lambda: betti(n, k, seed), args.cache_dir)
        rows.append({"n": n, "k": k, "betti": b})
    _emit_table(rows, args.format)
    return EXIT_OK


def cmd_graded(args) -> int:
    dims = graded_dims(args.n, args.k, seed=args.seed)
    rows = [
        {"n": args.n, "k": args.k, "r": r + 1, "dim": d} for r, d in enumerate(dims)
    ]
    _emit_table(rows, args.format)
    return EXIT_OK


def cmd_inner(args) -> int:
    dims = inner_graded_dims(args.n, args.k, seed=args.seed)
    rows = [
        {"n": args.n, "k": args.k, "b": b, "dim": d} for b, d in enumerate(dims)
    ]
    _emit_table(rows, args.format)
    return EXIT_OK


def cmd_character(args) -> int:
    n, k, space = args.n, args.k, args.space
    if space == "homology":
        ch = character_homology(n, k, seed=args.seed)
    elif space in ("p1", "p2"):
        ch = character_pset(n, k, space)
    elif space in ("q1", "q2", "q"):
        r = {"q1": 1, "q2": 2}.get(space, args.r)
        if r is None:
            raise DomainError("--space q needs --r")
        ch = character_graded(n, k, r, seed=args.seed)
    else:
        raise DomainError(f"unknown space {space!r}")
    if args.format == "json":
        _emit(ch.to_obj(k=k, space=space))
    else:
        rows = [
            {"cycle_type": cycle_type_key(t), "value": ch.values[t]}
            for t in partitions_of(n)
        ]
        _emit_table(rows, args.format)
    return EXIT_OK


def cmd_conjecture(args) -> int:
    ks = [args.k] if args.k is not None else list(range(1, args.n - 2))
    rows = []
    for k in ks:
        for r in range(1, min(k, args.n - 2 - k) + 1):
            rows.append(
                {"n": args.n, "k": k, "r": r, "value": q_dim_formula(args.n, k, r)}
            )
    _emit_table(rows, args.format if args.format != "table" else "csv")
    return EXIT_OK


def _verify_main_theorem(args) -> dict:
    n = args.n
    failures = []
    k = 2
    hom = character_homology(n, k, seed=args.seed)
    p1 = character_pset(n, k, "p1")
    p2 = character_pset(n, k, "p2")
    if hom != p1 + p2:
        failures.append({"check": "homology", "have": hom.to_obj(), "want": (p1 + p2).to_obj()})
    if character_graded(n, k, 1, seed=args.seed) != p1:
        failures.append({"check": "level-1"})
    if min(k, n - 2 - k) >= 2:
        if character_graded(n, k, 2, seed=args.seed) != p2:
            failures.append({"check": "level-2"})
    elif p2.dim() != 0:
        failures.append({"check": "level-2-empty"})
    return {"n": n, "k": k, "failures": failures}


def _verify_wtilde(args) -> dict:
    ks = [args.k] if args.k is not None else list(range(2, args.n - 3))
    if not ks:
        raise DomainError(f"no level-2 labels exist for n={args.n}")
    reports = [verify_relations_killed(args.n, k) for k in ks]
    return {
        "n": args.n,
        "k": ks if len(ks) > 1 else ks[0],
        "relations": sum(r.relations for r in reports),
        "max_residual": str(max(r.max_residual for r in reports)),
        "failures": [f for r in reports for f in r.failures],
    }


def _verify_rewrite(args) -> dict:
    n = args.n
    failures = []
    checked = 0
    for k in range(2, n - 3):
        level2 = [
            t for t in enumerate_strata(n, k) if filtration_level(t) == 2
        ]
        if args.sample and len(level2) > args.sample:
            rng = random.Random(args.seed)
            level2 = rng.sample(level2, args.sample)
        fibers: dict = {}
        for t in level2:
            checked += 1
            sigma0, moves = rewrite_to_standard(t)
            pair = w_map(t)
            if sigma0 != standard_tree(n, pair):
                failures.append({"tree": t.to_obj(), "reason": "wrong standard form"})
                continue
            fibers.setdefault(pair, set()).add(sigma0)
            cur = t
            for mv in moves:
                nxt = apply_move(cur, mv)
                # rearranges are homology equalities; the two-term swap
                # relation holds in the inner graded piece it lives in
                if mv.kind == "rearrange":
                    ok = class_equal(cur, nxt, seed=args.seed)
                else:
                    ok = graded_class_equal(cur, nxt, seed=args.seed)
                if not ok:
                    failures.append(
                        {"tree": t.to_obj(), "move": mv.to_obj(), "reason": "class changed"}
                    )
                cur = nxt
            if cur != sigma0:
                failures.append({"tree": t.to_obj(), "reason": "replay mismatch"})
        for pair, forms in fibers.items():
            if len(forms) != 1:
                failures.append(
                    {"pair": pair.to_obj(), "reason": "fiber not well-defined"}
                )
    return {"n": n, "checked": checked, "failures": failures}


def _verify_forgetful(args) -> dict:
    if args.k is not None and args.b is not None:
        rep = verify_forgetful_square(args.n, args.k, args.b)
        return rep.to_obj()
    # --k or --b given alone narrows the sweep to the cases it names
    cases = [(k, b) for k in range(2, args.n - 3) for b in range(0, args.n - k - 4 + 1)
             if args.k in (None, k) and args.b in (None, b)]
    if not cases and (args.k, args.b) != (None, None):
        raise DomainError(f"no trees to check for n={args.n}, k={args.k}, b={args.b}")
    checked, mismatches = 0, []
    for k, b in cases:
        rep = verify_forgetful_square(args.n, k, b)
        checked += rep.checked
        mismatches.extend(rep.mismatches)
    return {"n": args.n, "checked": checked, "mismatches": mismatches}


def _verify_conjecture(args) -> dict:
    n = args.n
    failures = []
    for k in range(0, n - 2):
        want = betti(n, k, seed=args.seed)
        got = betti_formula(n, k)
        if got != want:
            failures.append({"k": k, "formula": got, "rank": want})
        if k >= 1:
            dims = graded_dims(n, k, seed=args.seed)
            for r, d in enumerate(dims, start=1):
                f = q_dim_formula(n, k, r)
                if f != d:
                    failures.append({"k": k, "r": r, "formula": f, "rank": d})
    return {"n": n, "failures": failures}


def cmd_verify(args) -> int:
    if args.n > args.max_n:
        _emit(
            {
                "target": args.target,
                "n": args.n,
                "status": "skipped",
                "reason": f"n exceeds --max-n {args.max_n}",
            }
        )
        return EXIT_RESOURCE
    handler = {
        "main-theorem": _verify_main_theorem,
        "wtilde": _verify_wtilde,
        "rewrite": _verify_rewrite,
        "forgetful": _verify_forgetful,
        "conjecture": _verify_conjecture,
    }[args.target]
    try:
        report = handler(args)
    except (RankCertificationError, RewriteError, FormulaError, HalfIntegerError) as exc:
        _emit({
            "target": args.target,
            "n": args.n,
            "status": "fail",
            "error": {"type": type(exc).__name__, "message": str(exc)},
        })
        return EXIT_FAIL
    bad = report.get("failures") or report.get("mismatches")
    report["target"] = args.target
    report["status"] = "fail" if bad else "pass"
    _emit(report)
    return EXIT_FAIL if bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strata-lab",
        description="Exact workbench for boundary-strata homology of "
        "moduli of stable rational curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_k=False, opt_k=False):
        p.add_argument("--n", type=int, required=True)
        if need_k:
            p.add_argument("--k", type=int, required=True)
        elif opt_k:
            p.add_argument("--k", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cache-dir", type=Path, default=None)
        p.add_argument("--max-n", type=int, default=8)
        p.add_argument("--exact", action="store_true",
                       help="audit mode: fraction-free elimination (n <= 6)")

    p = sub.add_parser("enumerate", help="list strata as JSON lines")
    common(p, need_k=True)
    p.add_argument("--min-r", type=int, default=0)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("betti", help="Betti numbers from the rank oracle")
    common(p, opt_k=True)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("graded", help="graded dimensions by filtration level")
    common(p, need_k=True)
    p.set_defaults(func=cmd_graded)

    p = sub.add_parser("inner", help="inner filtration dimensions of the level-2 piece")
    common(p, need_k=True)
    p.set_defaults(func=cmd_inner)

    p = sub.add_parser("character", help="S_n-characters of the computed spaces")
    common(p, need_k=True)
    p.add_argument("--space", default="homology",
                   choices=("homology", "p1", "p2", "q1", "q2", "q"))
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("conjecture", help="closed-form candidate dimensions")
    common(p, opt_k=True)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("verify", help="runtime certification of the theorems")
    p.add_argument("target", choices=(
        "main-theorem", "wtilde", "rewrite", "forgetful", "conjecture"))
    common(p, opt_k=True)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--sample", type=int, default=1000,
                   help="cap per (n, k) on trees checked by rewrite (0 = all)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
