import json
import os
import subprocess
import sys
from pathlib import Path

import strata_lab

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_worker_sees_every_layer(tmp_path):
    """A traced filtration-n8 run of the benchmark worker passes its oracles
    and charges calls to the elimination and to the quotient basis: a rename
    that unhooks a traced function would zero its per-layer metric."""
    src = str(Path(strata_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = tmp_path / "worker.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "library", "filtration-n8",
         "--seed", "0", "--out", str(out), "--trace"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["failed"] == 0, result["raised"] + result["wrong"]
    agg = result["trace"]["agg"]
    for name in ("exact_linalg.eliminate", "exact_linalg.quotient_basis"):
        assert agg.get(name, [0])[0] > 0, name
