import json

import pytest
from test_cli import run_cli

from strata_lab.cache import cached, default_cache_dir
from strata_lab.trees import enumerate_strata


def test_strata_cache_round_trip(tmp_path):
    value = [[list(s) for s in t.splits] for t in enumerate_strata(6, 1)]
    calls = []

    def compute():
        calls.append(1)
        return value

    cold = cached("strata", {"n": 6, "k": 1}, compute, tmp_path)
    warm = cached("strata", {"n": 6, "k": 1}, compute, tmp_path)
    assert cold == warm == value
    assert len(calls) == 1
    assert len(list(tmp_path.glob("strata-n6-k1-*.json"))) == 1


def test_params_and_kind_separate_entries(tmp_path):
    assert cached("betti", {"n": 6, "k": 1, "seed": 0}, lambda: 16, tmp_path) == 16
    assert cached("betti", {"n": 6, "k": 1, "seed": 7}, lambda: 17, tmp_path) == 17
    assert cached("strata", {"n": 6, "k": 1}, lambda: [], tmp_path) == []
    assert cached("betti", {"n": 6, "k": 1, "seed": 0}, lambda: None, tmp_path) == 16
    assert len(list(tmp_path.glob("*.json"))) == 3


def test_corrupt_cache_recomputed(tmp_path):
    params = {"n": 5, "k": 1, "seed": 0}
    cached("betti", params, lambda: 5, tmp_path)
    path = next(tmp_path.glob("betti-n5-k1-seed0-*.json"))
    path.write_text("{not json", encoding="utf-8")
    assert cached("betti", params, lambda: 5, tmp_path) == 5
    # header mismatch (stale version) also falls back
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["header"]["version"] = "0.0.0"
    obj["value"] = -1
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert cached("betti", params, lambda: 5, tmp_path) == 5
    assert json.loads(path.read_text(encoding="utf-8"))["value"] == 5
    # a file with the right header but no value (the former strata layout)
    obj = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({"header": obj["header"], "trees": []}), encoding="utf-8")
    assert cached("betti", params, lambda: 5, tmp_path) == 5


def test_edited_value_recomputed(tmp_path):
    params = {"n": 6, "k": 1, "seed": 0}
    cached("betti", params, lambda: 16, tmp_path)
    path = next(tmp_path.glob("betti-n6-k1-seed0-*.json"))
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["value"] = 17  # header intact, value edited
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert cached("betti", params, lambda: 16, tmp_path) == 16
    assert json.loads(path.read_text(encoding="utf-8"))["value"] == 16
    # a file without a hash (the former layout) is recomputed too
    del obj["sha256"]
    obj["value"] = 16
    path.write_text(json.dumps(obj), encoding="utf-8")
    calls = []
    assert cached("betti", params, lambda: calls.append(1) or 16, tmp_path) == 16
    assert calls == [1]


def test_env_var_controls_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("STRATA_CACHE_DIR", str(tmp_path / "envcache"))
    assert default_cache_dir() == tmp_path / "envcache"
    assert cached("betti", {"n": 4, "k": 0, "seed": 0}, lambda: 1, default_cache_dir()) == 1
    assert len(list((tmp_path / "envcache").glob("betti-n4-k0-seed0-*.json"))) == 1


def test_warm_betti_reads_certified_results(tmp_path, monkeypatch):
    import strata_lab.cli as cli

    cold = run_cli(["betti", "--n", "6", "--seed", "7"], tmp_path)

    class Eliminated(Exception):
        pass

    def no_elimination(*args, **kwargs):
        raise Eliminated

    monkeypatch.setattr(cli, "betti", no_elimination)
    warm = run_cli(["betti", "--n", "6", "--seed", "7"], tmp_path)
    assert warm == cold and cold[0] == 0
    # a Betti number certified at another seed is not reused
    with pytest.raises(Eliminated):
        run_cli(["betti", "--n", "6", "--k", "1", "--seed", "0"], tmp_path)


def test_enumerate_leaves_the_cache_empty(tmp_path):
    args = ["enumerate", "--n", "6", "--k", "1", "--min-r", "1"]
    cold = run_cli(args, tmp_path)
    cache = tmp_path / "cache"
    assert not cache.exists() or not any(cache.iterdir())
    assert run_cli(args, tmp_path) == cold and cold[0] == 0 and cold[1]
