import hashlib
import json
import math

import pytest

from schull import StochasticDataset, fpras_gamma, load_dataset, oracle_expectation
from schull import save_dataset
from schull import cli
from schull.cli import main


def _gen(tmp_path, name="ds.json", n=6, dim=2, seed=3):
    path = tmp_path / name
    rc = main(
        [
            "gen", "random", "--n", str(n), "--dim", str(dim),
            "--seed", str(seed), "--out", str(path),
        ]
    )
    assert rc == 0
    return path


def test_gen_random_deterministic(tmp_path, capsys):
    a = _gen(tmp_path, "a.json", seed=5)
    b = _gen(tmp_path, "b.json", seed=5)
    c = _gen(tmp_path, "c.json", seed=6)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    capsys.readouterr()
    rc = main(["gen", "random", "--n", "6", "--dim", "2", "--seed", "5"])
    assert rc == 0
    assert capsys.readouterr().out.encode() == a.read_bytes()


def test_gen_random_validation(tmp_path, capsys):
    assert main(["gen", "random", "--n", "0", "--dim", "2"]) == 3
    assert main(["gen", "random", "--n", "4", "--dim", "0"]) == 3
    assert (
        main(["gen", "random", "--n", "4", "--dim", "2", "--prob-min", "0.9",
              "--prob-max", "0.2"])
        == 3
    )
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stat,methods",
    [
        ("diameter", ["witness", "two-approx", "oracle"]),
        ("width", ["witness", "fpras", "oracle"]),
        ("complexity", ["exact", "oracle"]),
    ],
)
def test_compute_all_methods(tmp_path, capsys, stat, methods):
    path = _gen(tmp_path)
    for method in methods:
        argv = ["compute", "--input", str(path), "--stat", stat, "--method", method]
        if method == "fpras":
            argv += ["--eps", "0.3", "--gamma", "5.0", "--seed", "7"]
        assert main(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["schema"] == 1
        assert rep["statistic"] == stat
        assert rep["method"] == method
        assert rep["n"] == 6 and rep["dim"] == 2
        assert math.isfinite(rep["value"]) and rep["value"] >= 0.0
        if method == "fpras":
            assert rep["bounds"] is None
            assert rep["seed"] == 7
            assert rep["epsilon"] == 0.3
            assert rep["gamma"] == 5.0
        else:
            lo, hi = rep["bounds"]
            assert lo <= rep["value"] <= hi or lo == hi
            assert rep["seed"] is None and rep["epsilon"] is None


def test_compute_default_methods(tmp_path, capsys):
    path = _gen(tmp_path)
    for stat, default in [
        ("diameter", "witness"),
        ("width", "witness"),
        ("complexity", "exact"),
    ]:
        assert main(["compute", "--input", str(path), "--stat", stat]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == default


def test_compute_reports_byte_identical(tmp_path, capsys):
    # gamma 0.1 gives 2 samples per cell, so every cell with a free point is
    # sampled and the seed moves the value
    path = _gen(tmp_path)
    argv = [
        "compute", "--input", str(path), "--stat", "width", "--method", "fpras",
        "--eps", "0.3", "--gamma", "0.1", "--seed", "11",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["sampled_cells"] > 0
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert main(argv[:-1] + ["12"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] != json.loads(first)["value"]


def test_compute_dataset_hash_and_gamma_default(tmp_path, capsys):
    path = _gen(tmp_path)
    argv = ["compute", "--input", str(path), "--stat", "width", "--method", "fpras",
            "--eps", "0.4"]
    assert main(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dataset_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert rep["gamma"] == fpras_gamma(2)


def test_compute_text_format(tmp_path, capsys):
    path = _gen(tmp_path)
    assert main(["compute", "--input", str(path), "--stat", "diameter",
                 "--format", "text"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    keys = [ln.split(" = ")[0] for ln in lines]
    assert keys == sorted(keys)
    assert "statistic = diameter" in lines


def test_compute_timing_goes_to_stderr(tmp_path, capsys):
    path = _gen(tmp_path)
    argv = ["compute", "--input", str(path), "--stat", "diameter"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--timing"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert "elapsed_ms=" in timed.err and "elapsed_ms" not in timed.out


def test_verify_passes(tmp_path, capsys, monkeypatch):
    path = _gen(tmp_path)
    for stat, method in [
        ("diameter", "witness"),
        ("diameter", "two-approx"),
        ("width", "witness"),
        ("complexity", "exact"),
        ("width", "oracle"),
    ]:
        rc = main(["verify", "--input", str(path), "--stat", stat,
                   "--method", method])
        out = capsys.readouterr().out
        assert rc == 0
        assert "contains_oracle=yes" in out
    # the oracle method is its own truth: one enumeration, not two
    calls = []

    def counted(ds, stat):
        calls.append(stat)
        return oracle_expectation(ds, stat)

    monkeypatch.setattr(cli, "oracle_expectation", counted)
    rc = main(["verify", "--input", str(path), "--stat", "diameter", "--method", "oracle"])
    out = capsys.readouterr().out
    assert rc == 0 and calls == ["diameter"]
    value = oracle_expectation(load_dataset(path), "diameter")
    assert out == (f"stat=diameter method=oracle value={value!r} oracle={value!r}\n"
                   f"bracket=[{value!r}, {value!r}] contains_oracle=yes\n")


def test_verify_slack_is_relative_at_tiny_scale(tmp_path, capsys, monkeypatch):
    # At coordinates near 1e-10 every value is far below an absolute 1e-9
    # slack; a bracket that misses the oracle by half must still fail.
    ds = load_dataset(_gen(tmp_path, n=8))
    path = tmp_path / "tiny.json"
    save_dataset(StochasticDataset(ds.points * 1e-10, ds.probs), path)
    truth = oracle_expectation(load_dataset(path), "diameter")
    monkeypatch.setattr(cli, "expected_diameter_witness", lambda ds: 0.5 * truth)
    rc = main(["verify", "--input", str(path), "--stat", "diameter", "--method", "witness"])
    assert rc == 1
    assert "contains_oracle=NO" in capsys.readouterr().out


def test_verify_complexity_exact_3d(tmp_path, capsys):
    path = _gen(tmp_path, n=7, dim=3)
    rc = main(["verify", "--input", str(path), "--stat", "complexity",
               "--method", "exact"])
    assert rc == 0
    assert "contains_oracle=yes" in capsys.readouterr().out


def test_verify_fpras_reports_gap(tmp_path, capsys):
    path = _gen(tmp_path)
    rc = main(["verify", "--input", str(path), "--stat", "width", "--method",
               "fpras", "--eps", "0.3", "--gamma", "20.0"])
    assert rc == 0
    assert "relative_error=" in capsys.readouterr().out


def test_verify_too_large(tmp_path, capsys):
    path = _gen(tmp_path, n=23)
    rc = main(["verify", "--input", str(path), "--stat", "diameter"])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_gen_hardness(tmp_path, capsys):
    graph = tmp_path / "p3.graph"
    graph.write_text("3 2\n1 2\n2 3\n")
    out = tmp_path / "p3.json"
    rc = main(["gen", "hardness", "--graph", str(graph), "--out", str(out)])
    assert rc == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["nonedge_distance"] == pytest.approx(math.sqrt(2.0))
    assert meta["edge_distance"] == pytest.approx(math.sqrt(5.0))
    assert meta["n_vertices"] == 3
    assert meta["independent_sets"] == 5
    ds = load_dataset(out)
    assert len(ds) == 3
    assert oracle_expectation(ds, "diameter") == pytest.approx(
        meta["expected_diameter"], abs=1e-9
    )
    rc = main(["compute", "--input", str(out), "--stat", "diameter",
               "--method", "oracle"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["value"] == pytest.approx(meta["expected_diameter"], abs=1e-9)


def test_gen_hardness_bad_graph(tmp_path, capsys):
    graph = tmp_path / "bad.graph"
    graph.write_text("3 1\n1 1\n")  # self-loop
    rc = main(["gen", "hardness", "--graph", str(graph), "--out",
               str(tmp_path / "x.json")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    path = _gen(tmp_path)
    assert main(["compute", "--input", str(tmp_path / "none.json"),
                 "--stat", "diameter"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compute", "--input", str(bad), "--stat", "diameter"]) == 3
    assert main(["compute", "--input", str(path), "--stat", "diameter",
                 "--method", "fpras"]) == 2
    with pytest.raises(SystemExit):
        main(["compute", "--input", str(path), "--stat", "volume"])
    capsys.readouterr()
    # an unreadable path is invalid input (3), never a failed verification (1)
    for argv in (
        ["compute", "--input", str(tmp_path), "--stat", "width"],
        ["verify", "--input", str(tmp_path), "--stat", "width"],
        ["gen", "random", "--n", "4", "--dim", "2", "--out", str(tmp_path)],
    ):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error:")
    # non-finite gamma or sample count, negative seeds, non-UTF-8 input,
    # out-of-range number literals: invalid input (3), never a traceback
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{}")
    graph = tmp_path / "latin.graph"
    graph.write_bytes(b"2 1\n1 \xff\n")
    huge = tmp_path / "huge.json"
    huge.write_text('{"dim": 1, "points": [{"coords": [1%s], "prob": 0.5}]}' % ("0" * 400))
    fpras = ["compute", "--input", str(path), "--stat", "width", "--method", "fpras"]
    for argv in (
        fpras + ["--gamma", "nan"],
        fpras + ["--gamma", "inf"],
        fpras + ["--gamma", "1e308"],
        fpras + ["--seed", "-1"],
        ["gen", "random", "--n", "4", "--dim", "2", "--seed", "-1"],
        ["compute", "--input", str(latin), "--stat", "width"],
        ["compute", "--input", str(huge), "--stat", "diameter"],
        ["gen", "hardness", "--graph", str(graph), "--out", str(tmp_path / "h.json")],
    ):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""
