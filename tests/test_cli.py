import io
import json
import sys

import pytest

from strata_lab.cli import main
from strata_lab.conjecture import FormulaError
from strata_lab.exact_linalg import RankCertificationError
from strata_lab.wtilde import HalfIntegerError, RewriteError, verify_forgetful_square


def run_cli(args, tmp_path):
    """Run the CLI in-process with an isolated cache; return (exit, stdout)."""
    argv = list(args)
    if "--cache-dir" not in argv and argv[0] != "verify":
        argv += ["--cache-dir", str(tmp_path / "cache")]
    old = sys.stdout
    sys.stdout = io.StringIO()
    try:
        code = main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdout = old
    return code, out


def test_enumerate_lines(tmp_path):
    code, out = run_cli(["enumerate", "--n", "4", "--k", "0"], tmp_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0]) == {"n": 4, "splits": [[2, 3]]}


def test_enumerate_min_r(tmp_path):
    code, out = run_cli(
        ["enumerate", "--n", "6", "--k", "2", "--min-r", "2"], tmp_path
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 10


def test_enumerate_domain_error(tmp_path):
    code, _ = run_cli(["enumerate", "--n", "3", "--k", "1"], tmp_path)
    assert code == 2


def test_betti_table(tmp_path):
    code, out = run_cli(["betti", "--n", "6", "--format", "csv"], tmp_path)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,k,betti"
    assert [r.split(",")[2] for r in rows[1:]] == ["1", "16", "16", "1"]


def test_table_format(tmp_path):
    code, out = run_cli(["graded", "--n", "6", "--k", "2"], tmp_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "k", "r", "dim"]
    assert lines[1].split() == ["6", "2", "1", "6"]
    assert lines[2].split() == ["6", "2", "2", "10"]


def test_betti_exact_audit(tmp_path):
    code, out = run_cli(
        ["betti", "--n", "5", "--exact", "--format", "json"], tmp_path
    )
    assert code == 0
    vals = [json.loads(line)["betti"] for line in out.strip().splitlines()]
    assert vals == [1, 5, 1]


def test_graded_and_inner_tables(tmp_path):
    code, out = run_cli(["graded", "--n", "7", "--k", "2", "--format", "csv"], tmp_path)
    assert code == 0
    assert out.strip().splitlines()[1:] == ["7,2,1,22", "7,2,2,105"]
    code, out = run_cli(["inner", "--n", "7", "--k", "2", "--format", "csv"], tmp_path)
    assert code == 0
    assert out.strip().splitlines()[1:] == ["7,2,0,35", "7,2,1,70"]


def test_character_json(tmp_path):
    code, out = run_cli(
        ["character", "--n", "6", "--k", "2", "--space", "p2", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["values"]["1^6"] == 10
    assert obj["values"]["2,1^4"] == 4


def test_conjecture_rows(tmp_path):
    code, out = run_cli(["conjecture", "--n", "7", "--format", "csv"], tmp_path)
    assert code == 0
    rows = dict()
    for line in out.strip().splitlines()[1:]:
        n, k, r, v = line.split(",")
        rows[(int(k), int(r))] = int(v)
    assert rows[(2, 1)] == 22 and rows[(2, 2)] == 105 and rows[(3, 2)] == 35


def test_verify_targets_pass(tmp_path):
    for target, extra in [
        ("main-theorem", ["--n", "6"]),
        ("wtilde", ["--n", "6", "--k", "2"]),
        ("forgetful", ["--n", "6"]),
        ("conjecture", ["--n", "6"]),
        ("rewrite", ["--n", "6"]),
    ]:
        code, out = run_cli(["verify", target] + extra, tmp_path)
        assert code == 0, (target, out)
        assert json.loads(out)["status"] == "pass"


def test_verify_wtilde_all_k(tmp_path):
    code, out = run_cli(["verify", "wtilde", "--n", "7"], tmp_path)
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == [2, 3] and obj["max_residual"] == "0"
    assert obj["relations"] == 1120  # every emitted relation, not a subfamily


@pytest.mark.parametrize("flag, value, cases", [
    ("--k", 3, [(3, 0)]),
    ("--b", 1, [(2, 1)]),
])
def test_verify_forgetful_narrows_to_a_lone_k_or_b(tmp_path, flag, value, cases):
    code, out = run_cli(["verify", "forgetful", "--n", "7", flag, str(value)], tmp_path)
    assert code == 0
    want = sum(verify_forgetful_square(7, k, b).checked for k, b in cases)
    assert json.loads(out)["checked"] == want < 2800  # 2800: every (k, b)
    code, _ = run_cli(["verify", "forgetful", "--n", "7", flag, "9"], tmp_path)
    assert code == 2


def test_verify_resource_bound(tmp_path):
    code, out = run_cli(["verify", "main-theorem", "--n", "9", "--max-n", "8"], tmp_path)
    assert code == 3
    assert json.loads(out)["status"] == "skipped"


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    import strata_lab.cli as cli
    from strata_lab.wtilde import KilledReport

    def broken(n, k):
        return KilledReport(n, k, 1, failures=[{"sigma": None, "residual": "1/2"}])

    monkeypatch.setattr(cli, "verify_relations_killed", broken)
    code, out = run_cli(["verify", "wtilde", "--n", "6", "--k", "2"], tmp_path)
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "fail" and obj["failures"]


@pytest.mark.parametrize("target, name, error", [
    ("main-theorem", "character_homology", RankCertificationError),
    ("rewrite", "rewrite_to_standard", RewriteError),
    ("conjecture", "betti_formula", FormulaError),
    ("wtilde", "verify_relations_killed", HalfIntegerError),
])
def test_verify_reports_named_errors(tmp_path, monkeypatch, target, name, error):
    import strata_lab.cli as cli

    def broken(*args, **kwargs):
        raise error("broken on purpose")

    monkeypatch.setattr(cli, name, broken)
    code, out = run_cli(["verify", target, "--n", "6"], tmp_path)
    assert code == 1
    assert json.loads(out) == {
        "target": target, "n": 6, "status": "fail",
        "error": {"type": error.__name__, "message": "broken on purpose"},
    }


def test_character_generic_graded_space(tmp_path):
    code, out = run_cli(
        ["character", "--n", "6", "--k", "2", "--space", "q", "--r", "1",
         "--format", "json"], tmp_path
    )
    assert code == 0
    assert json.loads(out)["values"]["1^6"] == 6
    code, _ = run_cli(
        ["character", "--n", "6", "--k", "2", "--space", "q"], tmp_path
    )
    assert code == 2  # --r missing


def test_outputs_byte_identical(tmp_path):
    a = run_cli(["character", "--n", "5", "--k", "1", "--space", "homology",
                 "--format", "json", "--seed", "7"], tmp_path)
    b = run_cli(["character", "--n", "5", "--k", "1", "--space", "homology",
                 "--format", "json", "--seed", "7"], tmp_path)
    assert a == b


def test_cache_hit_identical(tmp_path):
    cold = run_cli(["betti", "--n", "5", "--format", "json"], tmp_path)
    warm = run_cli(["betti", "--n", "5", "--format", "json"], tmp_path)
    assert cold == warm
    assert (tmp_path / "cache").exists()
