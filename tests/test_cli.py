import csv
import hashlib
import io
import json
import re
import sys
from functools import lru_cache

import pytest

import strata_lab.homology as h
from strata_lab.cli import main
from strata_lab.conjecture import FormulaError
from strata_lab.exact_linalg import RankCertificationError
from strata_lab.trees import enumerate_strata, filtration_level
from strata_lab.wtilde import RewriteError, verify_forgetful_square


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


@pytest.mark.parametrize("min_r, line", [
    ("-1", "--min-r must be >= 0, got -1"),
    ("9", "no strata of level >= 9 for (n, k) = (6, 2)"),
    ("3", "no strata of level >= 3 for (n, k) = (6, 2)"),
])
def test_enumerate_refuses_a_min_r_that_selects_nothing(monkeypatch, capsys, min_r, line):
    """A --min-r below 0 or above every level at (n, k) is one domain-error
    line, before any enumeration."""
    import strata_lab.cli as cli

    def no_enumeration(*args):
        raise AssertionError("strata enumerated")

    monkeypatch.setattr(cli, "enumerate_strata", no_enumeration)
    assert main(["enumerate", "--n", "6", "--k", "2", "--min-r", min_r]) == 2
    assert capsys.readouterr() == ("", f"domain error: {line}\n")


@pytest.mark.parametrize("n", range(3, 8))
def test_enumerate_takes_every_min_r_up_to_the_largest_level(tmp_path, n):
    # the largest level is min(k, n-2-k): each level up to it selects some
    # strata, the lines of the strata of that level or more, in order
    for k in range(n - 2):
        levels = [filtration_level(t) for t in enumerate_strata(n, k)]
        top = max(levels)
        assert top == min(k, n - 2 - k)
        for r in range(top + 2):
            code, out = run_cli(["enumerate", "--n", str(n), "--k", str(k),
                                 "--min-r", str(r)], tmp_path)
            want = [t.to_json() for t, level in zip(enumerate_strata(n, k), levels)
                    if level >= r]
            assert (code, out.splitlines()) == ((0, want) if r <= top else (2, []))


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


def test_betti_json_rows_at_n5(tmp_path):
    code, out = run_cli(["betti", "--n", "5", "--format", "json"], tmp_path)
    assert code == 0
    vals = [json.loads(line)["betti"] for line in out.strip().splitlines()]
    assert vals == [1, 5, 1]


def test_exact_is_refused_by_every_command(tmp_path, capsys):
    # no command takes --exact: argparse refuses it with exit 2, stdout empty
    for argv in (["betti", "--n", "6"], ["graded", "--n", "5", "--k", "1"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--exact", "--cache-dir", str(tmp_path / "cache")])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_graded_and_inner_tables(tmp_path):
    code, out = run_cli(["graded", "--n", "7", "--k", "2", "--format", "csv"], tmp_path)
    assert code == 0
    assert out.strip().splitlines()[1:] == ["7,2,1,22", "7,2,2,105"]
    code, out = run_cli(["inner", "--n", "7", "--k", "2", "--format", "csv"], tmp_path)
    assert code == 0
    assert out.strip().splitlines()[1:] == ["7,2,0,35", "7,2,1,70"]


def test_graded_refuses_k_without_graded_pieces(tmp_path):
    assert run_cli(["graded", "--n", "6", "--k", "0"], tmp_path) == (2, "")
    assert run_cli(["inner", "--n", "6", "--k", "0"], tmp_path) == (2, "")


@pytest.mark.parametrize("space", ["homology", "p1", "p2", "q1", "q2"])
def test_character_refuses_r_its_space_does_not_read(tmp_path, space):
    args = ["character", "--n", "6", "--k", "2", "--space", space, "--r", "2"]
    assert run_cli(args, tmp_path) == (2, "")


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


@pytest.mark.parametrize("k, code, out", [
    ("0", 2, ""), ("4", 2, ""), ("10", 2, ""), ("3", 0, "n,k,r,value\n6,3,1,1\n"),
])
def test_conjecture_k_has_graded_pieces(tmp_path, k, code, out):
    assert run_cli(["conjecture", "--n", "6", "--k", k, "--format", "csv"], tmp_path) == (code, out)


@pytest.mark.parametrize("args", [
    ["betti", "--n", "2"],
    ["conjecture", "--n", "3"],
    ["verify", "rewrite", "--n", "5"],
    ["verify", "forgetful", "--n", "5"],
    ["verify", "conjecture", "--n", "2"],
    ["verify", "rewrite", "--n", "6", "--sample", "-1"],
    ["character", "--n", "5", "--k", "9", "--space", "homology"],
    ["character", "--n", "5", "--k", "9", "--space", "p1"],
    ["character", "--n", "5", "--k", "9", "--space", "p2"],
    ["verify", "conjecture", "--n", "3"],
])
def test_nothing_to_compute_is_a_domain_error(tmp_path, args):
    assert run_cli(args, tmp_path) == (2, "")


@pytest.mark.parametrize("args, line", [
    (["conjecture", "--n", "6", "--k", "0"], "no graded pieces for (n, k) = (6, 0)"),
    (["verify", "wtilde", "--n", "5"], "no level-2 labels for n=5"),
    (["verify", "wtilde", "--n", "7", "--k", "9"], "no level-2 labels for (n, k) = (7, 9)"),
    (["verify", "rewrite", "--n", "5"], "no level-2 labels for n=5"),
    (["verify", "conjecture", "--n", "2"], "no graded pieces for n=2"),
])
def test_every_k_sweep_refuses_by_one_rule(tmp_path, capsys, args, line):
    """A --k outside a command's range, or an empty sweep, is one
    domain-error line naming what is missing, before any work."""
    cache = tmp_path / "cache"
    assert main([*args, "--cache-dir", str(cache)]) == 2
    assert capsys.readouterr() == ("", f"domain error: {line}\n")
    assert not cache.exists()


@pytest.mark.parametrize("target, extra", [
    ("main-theorem", ["--k", "99"]),
    ("rewrite", ["--k", "2"]),
    ("conjecture", ["--k", "99"]),
    ("main-theorem", ["--b", "0"]),
    ("wtilde", ["--k", "2", "--b", "0"]),
    ("rewrite", ["--b", "0"]),
    ("conjecture", ["--b", "0"]),
    ("main-theorem", ["--sample", "5"]),
    ("wtilde", ["--sample", "5"]),
    ("forgetful", ["--sample", "5"]),
    ("conjecture", ["--sample", "5"]),
])
def test_verify_refuses_options_its_target_does_not_read(tmp_path, target, extra):
    code, out = run_cli(["verify", target, "--n", "6"] + extra, tmp_path)
    assert code == 2 and out == ""


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


@pytest.mark.parametrize("extra, checked", [([], 10), (["--sample", "4"], 4), (["--sample", "0"], 10)])
def test_verify_rewrite_reads_sample(tmp_path, extra, checked):
    code, out = run_cli(["verify", "rewrite", "--n", "6"] + extra, tmp_path)
    assert code == 0
    assert json.loads(out)["checked"] == checked  # 10 level-2 trees at (6,2)


@pytest.mark.parametrize("name, reason", [("class_equal", "class changed"),
                                          ("apply_move", "replay mismatch")])
def test_verify_rewrite_reports_a_changed_class_or_a_replay_mismatch(
        tmp_path, monkeypatch, name, reason):
    import strata_lab.cli as cli
    from strata_lab.trees import MarkedTree

    def class_equal(*args, **kwargs):
        return name != "class_equal"

    monkeypatch.setattr(cli, "class_equal", class_equal)  # checks rearranges
    monkeypatch.setattr(cli, "graded_class_equal", lambda *args, **kwargs: True)  # swaps
    if name == "apply_move":
        monkeypatch.setattr(cli, "apply_move", lambda t, move: MarkedTree.star(t.n))
    # 3 trees per k at n = 8, seed 0: moves at 4 of them, one a rearrange
    code, out = run_cli(["verify", "rewrite", "--n", "8", "--sample", "3"], tmp_path)
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "fail" and obj["checked"] == 9
    assert obj["failures"] and {f["reason"] for f in obj["failures"]} == {reason}
    if name == "class_equal":
        assert [f["move"]["kind"] for f in obj["failures"]] == ["rearrange"]


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


@pytest.mark.parametrize("flag", ["--k", "--b"])
def test_verify_forgetful_names_only_the_options_given(capsys, flag):
    assert main(["verify", "forgetful", "--n", "7", flag, "9"]) == 2
    assert capsys.readouterr() == (
        "", f"domain error: no trees to check for n=7 with {flag[2:]}=9\n")
    for n in (4, 5):  # no (k, b) at all: no option to name
        assert main(["verify", "forgetful", "--n", str(n)]) == 2
        assert capsys.readouterr() == ("", f"domain error: no trees to check for n={n}\n")


def test_verify_forgetful_reports_one_k_and_b(tmp_path):
    code, out = run_cli(["verify", "forgetful", "--n", "7", "--k", "2", "--b", "1"], tmp_path)
    assert code == 0
    want = verify_forgetful_square(7, 2, 1).to_obj()
    assert want["checked"] > 0
    assert json.loads(out) == {**want, "target": "forgetful", "status": "pass"}


def _doubled(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + real(*args, **kwargs)


@pytest.mark.parametrize("n, name, checks", [
    (6, "character_homology", ["homology"]),
    (6, "character_graded", ["level-1", "level-2"]),
    (5, "character_pset", ["homology", "level-2-empty"]),  # no level 2 at (5, 2)
])
def test_verify_main_theorem_reports_each_failed_check(tmp_path, monkeypatch, n, name, checks):
    import strata_lab.cli as cli

    if name == "character_pset":
        real = cli.character_pset
        monkeypatch.setattr(cli, name, lambda n, k, which: real(n, k, "p1"))
    else:
        monkeypatch.setattr(cli, name, _doubled(getattr(cli, name)))
    code, out = run_cli(["verify", "main-theorem", "--n", str(n)], tmp_path)
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "fail" and obj["k"] == 2
    assert [f["check"] for f in obj["failures"]] == checks
    if name == "character_homology":
        (failure,) = obj["failures"]
        have, want = failure["have"]["values"], failure["want"]["values"]
        assert have == {c: 2 * v for c, v in want.items()}


@pytest.mark.parametrize("name, keys", [
    ("betti_formula", {"k", "formula", "rank"}),
    ("q_dim_formula", {"k", "r", "formula", "rank"}),
])
def test_verify_conjecture_reports_each_formula_that_misses(tmp_path, monkeypatch, name, keys):
    import strata_lab.cli as cli

    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: real(*args) + 1)
    code, out = run_cli(["verify", "conjecture", "--n", "6"], tmp_path)
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "fail" and obj["failures"]
    for f in obj["failures"]:
        assert set(f) == keys and f["formula"] == f["rank"] + 1


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_character_tables(tmp_path, fmt):
    args = ["character", "--n", "6", "--k", "2", "--space", "p2"]
    code, out = run_cli([*args, "--format", "json"], tmp_path)
    assert code == 0
    values = json.loads(out)["values"]
    code, out = run_cli([*args, "--format", fmt], tmp_path)
    assert code == 0
    lines = out.splitlines()
    header, *rows = csv.reader(lines) if fmt == "csv" else map(str.split, lines)
    assert header == ["cycle_type", "value"]
    assert [c for c, _ in rows][:2] == ["6", "5,1"]  # partitions_of order
    assert {c: int(v) for c, v in rows} == values


def test_verify_resource_bound(tmp_path):
    code, out = run_cli(["verify", "main-theorem", "--n", "9", "--max-n", "8"], tmp_path)
    assert code == 3
    assert out == ('{"n":9,"reason":"n exceeds --max-n 8","status":"skipped",'
                   '"target":"main-theorem"}\n')


@pytest.mark.parametrize("args", [
    ["betti", "--n", "9"],
    ["enumerate", "--n", "9", "--k", "0"],
    ["graded", "--n", "9", "--k", "3"],
    ["conjecture", "--n", "9"],
])
def test_every_command_honours_max_n(tmp_path, monkeypatch, args):
    import strata_lab.trees as tr

    def no_enumeration(*_):
        raise AssertionError("strata enumerated past --max-n")

    monkeypatch.setattr(tr, "_level", no_enumeration)
    code, out = run_cli(args + ["--max-n", "8"], tmp_path)
    assert code == 3
    assert json.loads(out) == {"command": args[0], "n": 9, "status": "skipped",
                               "reason": "n exceeds --max-n 8"}


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


def _no_relations(n, k):
    return iter(())  # the relation rank is 0, so Keel's b_k is missed


def _broken_formula(*args, **kwargs):
    raise FormulaError("broken on purpose")


KEEL_FAILURE = r"RankCertificationError: Betti number \d+ of \(6,2\) is not b_2 = 16"


@pytest.mark.parametrize("argv, module, name, fake, err", [
    (["betti", "--n", "6", "--k", "2"], "strata_lab.homology", "_relation_rows", _no_relations,
     KEEL_FAILURE),
    (["character", "--n", "6", "--k", "2"], "strata_lab.homology", "_relation_rows",
     _no_relations, KEEL_FAILURE),
    (["inner", "--n", "6", "--k", "2"], "strata_lab.homology", "_relation_rows", _no_relations,
     KEEL_FAILURE),
    (["conjecture", "--n", "6"], "strata_lab.cli", "q_dim_formula", _broken_formula,
     "FormulaError: broken on purpose"),
], ids=["betti", "character", "inner", "conjecture"])
def test_failed_checks_outside_verify_exit_1_with_one_stderr_line(
        tmp_path, monkeypatch, capsys, argv, module, name, fake, err):
    """A check that fails in a command other than verify ends in exit 1 and
    one stderr line naming the error, not a traceback: nothing is printed
    on stdout and no cache entry is written."""
    monkeypatch.setattr(sys.modules[module], name, fake)
    # echelons on a cache of their own, so the faked rows are the ones read
    monkeypatch.setattr(h, "_echelon", lru_cache(maxsize=None)(h._eliminate))
    cache = tmp_path / "cache"
    assert main([*argv, "--cache-dir", str(cache)]) == 1
    out, stderr = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(err + "\n", stderr), stderr
    assert list(cache.glob("*")) == []


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


@pytest.mark.parametrize("via", ["option", "env"])
def test_betti_refuses_a_cache_dir_that_is_a_file(tmp_path, monkeypatch, capsys, via):
    """A cache directory that cannot be created is refused with exit 2 and
    one domain-error line, before any enumeration or elimination."""
    import strata_lab.cli as cli

    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the cache directory was checked")

    monkeypatch.setattr(cli, "betti", no_work)
    monkeypatch.setattr(cli, "enumerate_strata", no_work)
    argv = ["betti", "--n", "5"]
    if via == "option":
        argv += ["--cache-dir", str(blocker)]
    else:
        monkeypatch.setenv("STRATA_CACHE_DIR", str(blocker))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("domain error: ") and err.count("\n") == 1, err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("k", ["9", "-1"])
def test_betti_refuses_a_k_before_making_the_cache_dir(tmp_path, capsys, k):
    cache = tmp_path / "cache"
    assert main(["betti", "--n", "6", "--k", k, "--cache-dir", str(cache)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"domain error: no homology group for (n, k) = (6, {k})\n"
    assert not cache.exists()


@pytest.mark.parametrize("value", [17, 16.0])
def test_betti_recomputes_a_cached_value_that_is_not_keels(tmp_path, capsys, value):
    """A Betti entry whose value is not the int b_k of Keel's recursion is
    a miss even with a matching sha256: the number is recomputed, certified
    and printed, and the entry rewritten."""
    from strata_lab.cache import _digest

    argv = ["betti", "--n", "6", "--k", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    (entry,) = tmp_path.iterdir()
    obj = json.loads(entry.read_text())
    obj.update(value=value, sha256=_digest(value))
    entry.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.split() == ["n", "k", "betti", "6", "2", "16"]
    stored = json.loads(entry.read_text())["value"]
    assert (type(stored), stored) == (int, 16)


def test_betti_prints_its_table_when_a_cache_entry_cannot_be_written(tmp_path, capsys):
    """A cache entry that cannot be written costs the reuse of the value,
    not the value: the table is printed, one stderr line names the entry,
    and the exit code is 0."""
    cache = tmp_path / "cache"
    entry = cache / "betti-n6-k1-seed0-7229650a9edf2612.json"
    entry.mkdir(parents=True)
    assert main(["betti", "--n", "6", "--k", "1", "--cache-dir", str(cache)]) == 0
    out, err = capsys.readouterr()
    assert out.split() == ["n", "k", "betti", "6", "1", "16"]
    assert err == f"cache: cannot write {entry}: Is a directory\n"
    assert entry.is_dir() and list(cache.iterdir()) == [entry]


# sha256 of stdout and the exit code of whole commands.  A seed fixes the
# primes drawn, and every number printed is certified, so both seeds print
# the same bytes
PINNED_STDOUT = {
    "enumerate --n 8 --k 0":
        (0, "babef1f3611d1621ab3f78855f92bfa839efdf1361f90c99c2d3e502f788e080"),
    "enumerate --n 7 --k 2 --min-r 2":
        (0, "fa74afab174ac847230ea6986fa1026c2598710ed6dcbd61cb692491ec4ede86"),
    "betti --n 7":
        (0, "8793dd2b83cef6cb8789fb8dfa58cfc5a9041209a985f9d852c8302f7cba8c35"),
    "betti --n 8 --k 3":
        (0, "46d0f14a5d1c8976f21067cb1de73728d2bae07dcbb3cc22550b809ca85d18bb"),
    "betti --n 6":
        (0, "f6d07bbd1537b516f0159d7c6209955e676aaac836df4f2aec6ffa8da527d904"),
    "graded --n 8 --k 3":
        (0, "a30292c69586e874b58ecc64f05de72ea2911475171598c3366b6f1b29013291"),
    "inner --n 8 --k 2":
        (0, "e46125deffb533626a61a19d727a8e7e576f09d70954c06f94e3651b8b5f76bf"),
    "character --n 8 --k 3 --space homology":
        (0, "699c96222d1a5249f8c6f729b2965d4ff93b6b57235280f7a01e746d0102f3e1"),
    "character --n 7 --k 2 --space q --r 2":
        (0, "4a9662969d96b8ccd05cc65a64375c02613f5e52ca3ead32e499731ec0f6dcac"),
    "character --n 7 --k 2 --space p2 --format json":
        (0, "a4055c5f0c7ea68e0196c67dc97f29234ef3fb6e8f8b972ac9630e2891ed3e37"),
    "conjecture --n 8":
        (0, "0196b77d81b60f97669d076f7d856eb2690cac8bdb855d797a88f9347a762090"),
    "verify main-theorem --n 7":
        (0, "d0aa9b2fc8f9de7c5f8a2dc7449c684ba91fb38ca10e6c4d950bf423e8f3f376"),
    "verify wtilde --n 7":
        (0, "e560e386bb5470e2f519a7774b0c199f3c1238183f970c7c19382b0ec98bd4c8"),
    "verify rewrite --n 7":
        (0, "de594c7110738b76306e0604c9cf945bfda95cbcc0049f6fc9342c8b59b61786"),
    "verify forgetful --n 7":
        (0, "99db195e27a29400bf8c3f9b68727868d7531f33ffef50fa701c7833af834525"),
    "verify forgetful --n 8 --k 3":
        (0, "348301a100286b730de65a0459a33d92ac12e7120f82fae42e8c9ccae7a808ec"),
    "verify conjecture --n 7":
        (0, "52e6dc726b4251508484cecf58af8d056f782b671c272132da5d1c839772358e"),
}


@pytest.mark.parametrize("seed", ["0", "7"])
def test_cli_stdout_is_pinned(tmp_path, seed):
    got = {}
    for i, command in enumerate(PINNED_STDOUT):
        code, out = run_cli([*command.split(), "--seed", seed,
                             "--cache-dir", str(tmp_path / f"cache-{i}")], tmp_path)
        got[command] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == PINNED_STDOUT
