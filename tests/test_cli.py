"""End-to-end command tests: exit codes, JSON shape, determinism, errors."""
import dataclasses
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import mglab.cli as cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def space_doc(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "outcomes": ["a", "b", "c", "d"],
        "weights": ["1/2", "1/4", "1/8", "1/8"],
        "generators": [[0], [1]],
    }))
    return str(path)


@pytest.fixture
def walk_doc(tmp_path):
    doc = {
        "space": {
            "outcomes": ["HH", "HT", "TH", "TT"],
            "weights": ["1/4", "1/4", "1/4", "1/4"],
        },
        "filtration": [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
        "process": [[0, 0, 0, 0], [1, 1, -1, -1], [2, 0, 0, -2]],
        "predictable": [[1, 1, 1, 1], [1, 1, 2, 2]],
        "stopping_time": [1, 1, 2, 2],
        "interval": [-1, 1],
        "window": 1,
        "epsilon": "1/3",
        "variable": [2, 0, 0, -2],
        "conditioning": [[0, 1], [2, 3]],
        "conditioning_fine": [[0], [1], [2], [3]],
    }
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_sigma_lists_atoms_and_sets(capsys, space_doc):
    code, out, _ = run_cli(capsys, "sigma", space_doc)
    assert code == 0
    doc = json.loads(out)
    assert doc["atom_count"] == 3
    assert doc["atoms"] == [[0], [1], [2, 3]]
    assert doc["set_count"] == 8
    assert len(doc["sets"]) == 8
    assert doc["warning"] is None


def test_sigma_respects_limit_flag(capsys, space_doc):
    code, out, _ = run_cli(capsys, "sigma", space_doc, "--limit", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["sets"] is None
    assert "Monte Carlo" in doc["warning"]
    assert doc["atoms"] == [[0], [1], [2, 3]]


def test_sigma_env_limit(capsys, space_doc, monkeypatch):
    monkeypatch.setenv("MGL_ENUM_LIMIT", "4")
    code, out, _ = run_cli(capsys, "sigma", space_doc)
    assert json.loads(out)["sets"] is None
    code, out, _ = run_cli(capsys, "sigma", space_doc, "--limit", "1024")
    assert json.loads(out)["sets"] is not None


def test_sigma_bad_env_limit(capsys, space_doc, monkeypatch):
    monkeypatch.setenv("MGL_ENUM_LIMIT", "many")
    code, _, err = run_cli(capsys, "sigma", space_doc)
    assert code == 2 and "MGL_ENUM_LIMIT" in err


@pytest.mark.parametrize("theorem", [
    "classify", "transform", "stopped", "optional-stopping", "upcrossing",
    "pythagoras", "tower", "kolmogorov", "tail-bound",
])
def test_verify_all_theorems_pass_on_reference_doc(capsys, walk_doc, theorem):
    code, out, _ = run_cli(capsys, "verify", walk_doc, theorem)
    doc = json.loads(out)
    assert code == 0, doc
    assert doc["pass"] is True and doc["exit_code"] == 0
    assert doc["theorem"] == theorem


def test_verify_classify_detail(capsys, walk_doc):
    _, out, _ = run_cli(capsys, "verify", walk_doc, "classify")
    detail = json.loads(out)["detail"]
    assert detail == {"label": "martingale", "witness": None}


def test_verify_missing_field_is_input_error(capsys, tmp_path, walk_doc):
    doc = json.loads(open(walk_doc).read())
    del doc["predictable"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(path), "transform")
    assert code == 2
    assert "predictable" in err


def test_verify_missing_weights_is_input_error(capsys, tmp_path):
    path = tmp_path / "noweights.json"
    path.write_text(json.dumps({
        "space": {"outcomes": ["x", "y"]},
        "filtration": [[[0, 1]], [[0], [1]]],
        "process": [[0, 0], [1, -1]],
    }))
    code, _, err = run_cli(capsys, "verify", str(path), "classify")
    assert code == 2 and "weights" in err


def test_verify_hypothesis_failure_exits_one(capsys, tmp_path, walk_doc):
    doc = json.loads(open(walk_doc).read())
    doc["stopping_time"] = [1, 1, None, None]
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "optional-stopping")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False and report["hypothesis_ok"] is False
    assert report["reason"]


def test_verify_bad_kolmogorov_candidate_exits_one(capsys, tmp_path, walk_doc):
    doc = json.loads(open(walk_doc).read())
    doc["candidate"] = [5, 5, 5, 5]
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "kolmogorov")
    assert code == 1
    report = json.loads(out)
    assert report["detail"]["candidate_source"] == "given"
    assert report["detail"]["identity_holds"] is False


def test_verify_good_kolmogorov_candidate(capsys, tmp_path, walk_doc):
    doc = json.loads(open(walk_doc).read())
    doc["candidate"] = [1, 1, -1, -1]
    path = tmp_path / "cand_ok.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "kolmogorov")
    assert code == 0
    assert json.loads(out)["detail"]["candidate_source"] == "given"


def test_verify_non_nested_tower_is_input_error(capsys, tmp_path, walk_doc):
    doc = json.loads(open(walk_doc).read())
    doc["conditioning_fine"] = [[0, 2], [1, 3]]
    path = tmp_path / "crossed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(path), "tower")
    assert code == 2 and err


def test_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(path), "classify")
    assert code == 2 and "malformed" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "verify", "/no/such/file.json", "classify")
    assert code == 2


def test_internal_error_maps_to_exit_three(capsys, space_doc, monkeypatch):
    def boom(args):
        raise cli.InternalCheckError("synthetic defect")

    monkeypatch.setattr(cli, "cmd_sigma", boom)
    code, _, err = run_cli(capsys, "sigma", space_doc)
    assert code == 3
    assert "internal invariant violation" in err


@pytest.mark.parametrize("exc", [RuntimeError("synthetic bug"), MemoryError("synthetic")])
def test_unexpected_exception_maps_to_exit_three(capsys, space_doc, monkeypatch, exc):
    def boom(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_sigma", boom)
    code, _, err = run_cli(capsys, "sigma", space_doc)
    assert code == 3
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_failed_conclusion_with_hypothesis_held_exits_three(capsys, walk_doc, monkeypatch):
    real = cli.proc.l2_pythagoras_check

    def broken(*args, **kwargs):
        rep = real(*args, **kwargs)
        assert rep.hypothesis_ok
        return dataclasses.replace(rep, holds=False, gap=Fraction(1, 7))

    monkeypatch.setattr(cli.proc, "l2_pythagoras_check", broken)
    code, out, err = run_cli(capsys, "verify", walk_doc, "pythagoras")
    assert code == 3 and out == ""
    assert "internal invariant violation: the L2 identity failed on a martingale (gap 1/7)" in err


def test_simulate_walk_reports_estimate(capsys):
    code, out, _ = run_cli(capsys, "simulate", "walk", "--n", "6",
                           "--paths", "2000", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "walk" and doc["n_paths"] == 2000
    est = doc["terminal_estimate"]
    assert set(est) == {"mean", "std_error", "ci95", "n_paths"}
    assert abs(float(est["mean"])) < 0.2


def test_simulate_doubling_reports_win_frequency(capsys):
    code, out, _ = run_cli(capsys, "simulate", "doubling", "--levels", "5",
                           "--paths", "4000", "--seed", "3")
    doc = json.loads(out)
    est = doc["profit_estimate"]
    assert float(est["win_frequency"]) > 0.9
    assert est["profit_on_win"] == 1
    assert est["loss_on_exhaustion"] == 31


def test_simulate_csv_dump(capsys, tmp_path):
    out_path = tmp_path / "paths.csv"
    code, _, _ = run_cli(capsys, "simulate", "walk", "--n", "4",
                         "--paths", "25", "--seed", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t0,t1,t2,t3,t4"
    assert len(lines) == 26
    first = [int(v) for v in lines[1].split(",")]
    assert first[0] == 0 and all(abs(a - b) == 1 for a, b in zip(first, first[1:]))


def test_simulate_missing_model_flag_is_input_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "walk")
    assert code == 2 and "--n" in err
    code, _, err = run_cli(capsys, "simulate", "doubling")
    assert code == 2 and "--levels" in err


def test_walk_spec_verify_pipeline(capsys, tmp_path):
    spec_path = tmp_path / "w.json"
    code, out, _ = run_cli(capsys, "walk-spec", "--n", "5", "--stop-hit", "2",
                           "--interval", "-1", "1", "--window", "1",
                           "--epsilon", "1/4", "--out", str(spec_path))
    assert code == 0
    for theorem in ("classify", "stopped", "upcrossing", "pythagoras"):
        code, out, _ = run_cli(capsys, "verify", str(spec_path), theorem)
        assert code == 0, (theorem, out)


def test_walk_spec_biased_classifies_strict(capsys, tmp_path):
    spec_path = tmp_path / "b.json"
    run_cli(capsys, "walk-spec", "--n", "4", "--p", "1/3", "--out", str(spec_path))
    code, out, _ = run_cli(capsys, "verify", str(spec_path), "classify")
    assert json.loads(out)["detail"]["label"] == "strict-supermartingale"


def test_human_format_same_numbers(capsys, space_doc):
    _, json_out, _ = run_cli(capsys, "sigma", space_doc)
    _, human_out, _ = run_cli(capsys, "sigma", space_doc, "--format", "human")
    assert "atom_count: 3" in human_out
    assert json.loads(json_out)["atom_count"] == 3


def test_repeat_runs_byte_identical(capsys):
    argv = ["simulate", "doubling", "--levels", "4", "--paths", "3000", "--seed", "9"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_bad_flags_exit_two(capsys, space_doc):
    code, _, _ = run_cli(capsys, "sigma", space_doc, "--limit", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "sigma", space_doc, "--tolerance", "-1")
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mglab.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "sigma" in proc.stdout and "verify" in proc.stdout
