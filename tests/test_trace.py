import json
import os
import subprocess
import sys
from pathlib import Path

import strata_lab

ROOT = Path(__file__).resolve().parents[1]


def _traced_worker_run(tmp_path, workload: str) -> dict:
    """The result of one traced library run of the benchmark worker at seed
    0, after checking that it exited cleanly and that no operation failed."""
    src = str(Path(strata_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = tmp_path / "worker.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "library", workload,
         "--seed", "0", "--out", str(out), "--trace"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["failed"] == 0, result["raised"] + result["wrong"]
    return result


def test_traced_benchmark_worker_sees_every_layer(tmp_path):
    """A traced filtration-n8 run of the benchmark worker passes its oracles
    and charges calls to the elimination and to the character: a rename
    that unhooks a traced function would zero its per-layer metric."""
    agg = _traced_worker_run(tmp_path, "filtration-n8")["trace"]["agg"]
    for name in ("exact_linalg.eliminate", "homology.character_homology"):
        assert agg.get(name, [0])[0] > 0, name


def test_traced_pairs_worker_sees_the_pair_map_checks(tmp_path):
    """A traced pairs-n8 run passes its oracles and charges calls to the
    killing check, the rewrite and the forgetful square, which the
    per-layer metrics wtilde.killed_s, rewrite_s and square_s read."""
    agg = _traced_worker_run(tmp_path, "pairs-n8")["trace"]["agg"]
    for name in ("wtilde.verify_relations_killed", "wtilde.rewrite_to_standard",
                 "wtilde.verify_forgetful_square"):
        assert agg.get(name, [0])[0] > 0, name


def test_traced_cli_run_matches_the_untraced_command(tmp_path):
    """A traced `betti --n 7` through the benchmark worker exits 0, prints
    what the untraced command prints, and charges calls to the elimination
    and to the cache; the tracer reads `ModEchelon.add_rows(rows, presorted)`
    and `ModEchelon.key`, so this run pins both."""
    src = str(Path(strata_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = tmp_path / "trace.json"
    args = ["betti", "--n", "7"]
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "cli", "--out", str(out),
         "--", *args, "--cache-dir", str(tmp_path / "traced")],
        env=env, capture_output=True, text=True)
    assert traced.returncode == 0, traced.stderr
    plain = subprocess.run(
        [sys.executable, "-m", "strata_lab.cli", *args, "--cache-dir", str(tmp_path / "plain")],
        env=env, capture_output=True, text=True)
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout != ""
    agg = json.loads(out.read_text())["trace"]["agg"]
    for name in ("exact_linalg.eliminate", "cache.cached"):
        assert agg.get(name, [0])[0] > 0, name
