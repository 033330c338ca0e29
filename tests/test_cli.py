"""End-to-end command tests: exit codes, JSON shape, determinism, errors."""
import contextlib
import dataclasses
import io
import json
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mglab.cli as cli
from mglab import simulate_doubling_strategy
from mglab.montecarlo import _BLOCK


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


# Each selector's required spec fields, in the order it asks for them.
REQUIRED_FIELDS = {
    "classify": ("process",),
    "transform": ("process", "predictable"),
    "stopped": ("process", "stopping_time"),
    "optional-stopping": ("process", "stopping_time"),
    "upcrossing": ("process", "interval"),
    "pythagoras": ("process",),
    "tower": ("variable", "conditioning", "conditioning_fine"),
    "kolmogorov": ("variable", "conditioning"),
    "tail-bound": ("stopping_time", "window", "epsilon"),
}


@pytest.mark.parametrize("theorem,index", [
    pytest.param(theorem, index, id=f"{theorem}-{field}")
    for theorem, fields in REQUIRED_FIELDS.items()
    for index, field in enumerate(fields)
])
def test_verify_missing_field_is_input_error(capsys, tmp_path, walk_doc, theorem, index):
    assert REQUIRED_FIELDS.keys() == cli.THEOREMS.keys()
    fields = REQUIRED_FIELDS[theorem]
    doc = json.loads(Path(walk_doc).read_text())
    # Drop this field and every later one, so the first in order must be named.
    for field in fields[index:]:
        del doc[field]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path), theorem)
    assert code == 2 and out == ""
    assert err == f"input error: {fields[index]}: required by this theorem selector but missing\n"


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
    doc = json.loads(Path(walk_doc).read_text())
    doc["stopping_time"] = [1, 1, None, None]
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "optional-stopping")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False and report["hypothesis_ok"] is False
    assert report["reason"]


def test_default_stake_bound_is_read_on_the_stake_nodes(capsys, tmp_path, walk_doc):
    """With no ``bound`` the stake bound is the first of the equal maxima, in outcome
    order, which sits at a least member: the int 1 there, though 1.0 fills the rest."""
    doc = json.loads(Path(walk_doc).read_text())
    doc["predictable"] = [[1, 1.0, 1.0, 1.0], [1, 1.0, 1, 1.0]]
    path = tmp_path / "mixed_stakes.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "transform")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["detail"]["bound"] == 1 and type(report["detail"]["bound"]) is int


NO_CLAIM = (
    "the process is not a martingale, supermartingale, or submartingale; optional stopping "
    "makes no claim for it"
)


@pytest.mark.parametrize("stopping_time, reason", [
    ([1, 1, 2, 2], NO_CLAIM),
    ([1, 1, None, None], "tau unbounded at horizon; conclusion not asserted; " + NO_CLAIM),
], ids=["bounded", "unbounded"])
def test_optional_stopping_reason_for_unclassified_process(
    capsys, tmp_path, walk_doc, stopping_time, reason
):
    doc = json.loads(Path(walk_doc).read_text())
    doc["process"] = [[0, 0, 0, 0], [1, 1, -1, -1], [5, 0, 0, -4]]
    doc["stopping_time"] = stopping_time
    path = tmp_path / "unclassified.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "optional-stopping")
    assert code == 1
    report = json.loads(out)
    assert report["reason"] == reason and report["detail"]["conclusion"] == "not asserted"


def test_stopped_reason_for_unclassified_process(capsys, tmp_path, walk_doc):
    doc = json.loads(Path(walk_doc).read_text())
    doc["process"] = [[0, 0, 0, 0], [1, 1, -1, -1], [5, 0, 0, -4]]
    path = tmp_path / "unclassified.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "stopped")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False and report["hypothesis_ok"] is False
    assert report["reason"] == (
        "input classifies as none; stopping preserves martingale, supermartingale, and "
        "submartingale structure only"
    )
    assert report["detail"]["input_label"] == "none"


@pytest.fixture
def submartingale_doc(capsys, tmp_path):
    """A walk at p = 2/3, stopped at its first hit of |X| = 1, with the interval [-1, 1]."""
    path = tmp_path / "up.json"
    code, _, _ = run_cli(capsys, "walk-spec", "--n", "3", "--p", "2/3", "--stop-hit", "1",
                         "--interval", "-1", "1", "--out", str(path))
    assert code == 0
    return str(path)


def test_verify_stopped_passes_on_a_submartingale(capsys, submartingale_doc):
    code, out, _ = run_cli(capsys, "verify", submartingale_doc, "stopped")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["hypothesis_ok"] is True
    assert report["detail"]["input_label"] == "strict-submartingale"
    assert report["detail"]["stopped_label"] == "submartingale"


def test_verify_transform_claims_submartingale_for_nonnegative_stakes(capsys, submartingale_doc):
    doc = json.loads(Path(submartingale_doc).read_text())
    doc["predictable"] = [[1] * 8, [1, 1, 1, 1, 0, 0, 0, 0], [2, 2, 0, 0, 1, 1, 0, 0]]
    with open(submartingale_doc, "w") as fh:
        json.dump(doc, fh)
    code, out, _ = run_cli(capsys, "verify", submartingale_doc, "transform")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["hypothesis_ok"] is True
    detail = report["detail"]
    assert detail["input_label"] == "strict-submartingale"
    assert detail["claimed_label"] == "submartingale" and detail["bound"] == 2
    assert detail["output_label"] == "submartingale" and detail["holds"] is True


def test_verify_upcrossing_on_a_submartingale_gives_the_first_note(capsys, submartingale_doc):
    code, out, _ = run_cli(capsys, "verify", submartingale_doc, "upcrossing")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False and report["hypothesis_ok"] is False
    assert report["reason"] == report["detail"]["notes"][0] == (
        "process classifies as strict-submartingale, not a supermartingale; figures "
        "reported, nothing asserted"
    )


def test_verify_bad_kolmogorov_candidate_exits_one(capsys, tmp_path, walk_doc):
    doc = json.loads(Path(walk_doc).read_text())
    doc["candidate"] = [5, 5, 5, 5]
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "kolmogorov")
    assert code == 1
    report = json.loads(out)
    assert report["detail"]["candidate_source"] == "given"
    assert report["detail"]["identity_holds"] is False


def test_verify_good_kolmogorov_candidate(capsys, tmp_path, walk_doc):
    doc = json.loads(Path(walk_doc).read_text())
    doc["candidate"] = [1, 1, -1, -1]
    path = tmp_path / "cand_ok.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "kolmogorov")
    assert code == 0
    assert json.loads(out)["detail"]["candidate_source"] == "given"


def test_verify_non_nested_tower_is_input_error(capsys, tmp_path, walk_doc):
    doc = json.loads(Path(walk_doc).read_text())
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


@pytest.mark.parametrize("exc", [RuntimeError("synthetic bug"), MemoryError("synthetic")])
def test_unexpected_exception_maps_to_exit_three(capsys, space_doc, monkeypatch, exc):
    def boom(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_sigma", boom)
    code, _, err = run_cli(capsys, "sigma", space_doc)
    assert code == 3
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


# selector -> (module, check, report fields forced to fail, or None for a check
# that returns a bare bool).  `stopped` classifies its input first, which is
# left as it is, and then the stopped process, which is forced to `none`.
FAILED_CONCLUSIONS = {
    "transform": ("proc", "verify_transform_preservation", {"holds": False}),
    "stopped": ("proc", "classify", {"label": "none"}),
    "optional-stopping": ("proc", "optional_stopping_report", {"holds": False}),
    "upcrossing": ("proc", "upcrossing_inequality_check", {"holds": False}),
    "pythagoras": ("proc", "l2_pythagoras_check", {"holds": False, "gap": Fraction(1, 7)}),
    "tail-bound": ("proc", "stopping_tail_bound_check", {"chain_ok": False}),
    "tower": ("cond", "tower_check", None),
    "kolmogorov": ("cond", "verify_kolmogorov", None),
}


def _fail_conclusion(monkeypatch, theorem):
    """Make ``theorem``'s check fail its conclusion while its hypotheses still hold."""
    module_name, check, forced = FAILED_CONCLUSIONS[theorem]
    module = getattr(cli, module_name)
    real = getattr(module, check)
    left_alone = 1 if theorem == "stopped" else 0

    def broken(*args, **kwargs):
        nonlocal left_alone
        result = real(*args, **kwargs)
        if left_alone:
            left_alone -= 1
            return result
        if forced is None:
            assert result is True
            return False
        assert result
        return dataclasses.replace(result, **forced)

    monkeypatch.setattr(module, check, broken)


def _conclusion_failed(theorem):
    return (
        f"internal invariant violation: verify {theorem}: the conclusion failed with its "
        "hypotheses satisfied; this indicates a defect in this tool, not a counterexample "
        "to the theorem\n"
    )


@pytest.mark.parametrize("theorem", list(FAILED_CONCLUSIONS))
def test_failed_conclusion_with_hypothesis_held_exits_three(
    capsys, walk_doc, monkeypatch, theorem
):
    _fail_conclusion(monkeypatch, theorem)
    code, out, err = run_cli(capsys, "verify", walk_doc, theorem)
    assert code == 3
    assert err == _conclusion_failed(theorem)
    report = json.loads(out)
    assert report["exit_code"] == 3 and report["theorem"] == theorem
    assert report["hypothesis_ok"] is True and report["reason"] is None
    assert report["pass"] is False


def test_failed_conclusion_prints_the_human_report_too(capsys, walk_doc, monkeypatch):
    _fail_conclusion(monkeypatch, "stopped")
    code, out, err = run_cli(capsys, "verify", walk_doc, "stopped", "--format", "human")
    assert code == 3
    assert err == _conclusion_failed("stopped")
    lines = out.splitlines()
    assert lines[:6] == [
        "command: verify", "theorem: stopped", "hypothesis_ok: True", "reason: None",
        "pass: False", "exit_code: 3",
    ]
    assert "  stopped_label: none" in lines


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


def test_simulate_csv_matches_the_per_value_writer(capsys, tmp_path):
    """The block-at-a-time writer gives the bytes of the old one-value-at-a-time
    writer, on a doubling ensemble spanning several row blocks."""
    out_path = tmp_path / "paths.csv"
    n_paths = 3 * (_BLOCK // 9) + 5
    code, _, _ = run_cli(capsys, "simulate", "doubling", "--levels", "8", "--paths",
                         str(n_paths), "--seed", "4", "--out", str(out_path))
    assert code == 0
    ensemble, _ = simulate_doubling_strategy(0, 8, Fraction(1, 2), n_paths, 4)
    expected = ",".join(f"t{t}" for t in range(9)) + "\n" + "".join(
        ",".join(str(int(v)) for v in row) + "\n" for row in ensemble.paths)
    assert out_path.read_bytes() == expected.encode("utf-8")


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


@pytest.mark.parametrize("flags", [
    ("--window", "0"), ("--window", "-3"), ("--epsilon", "2"), ("--epsilon", "0"),
    ("--epsilon", "1"), ("--interval", "1", "1"),
])
def test_walk_spec_refuses_what_verify_would_refuse(capsys, tmp_path, flags):
    """A spec that every verify selector would reject is never written."""
    spec_path = tmp_path / "bad.json"
    code, out, err = run_cli(capsys, "walk-spec", "--n", "3", *flags, "--out", str(spec_path))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {flags[0]}: ")
    assert not spec_path.exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "walk", "--n", "3", "--p", "x"),
    ("simulate", "doubling", "--levels", "3", "--entry", "x"),
    ("walk-spec", "--n", "3", "--p", "x"),
    ("walk-spec", "--n", "3", "--interval", "1", "x"),
    ("walk-spec", "--n", "3", "--epsilon", "x"),
])
def test_unparsable_number_flags_name_their_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    flag = [a for a in argv if a.startswith("--")][-1]
    assert err == f"input error: {flag}: cannot parse 'x' as a number\n"


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


@pytest.mark.parametrize("output_format", ["json", "human"])
@pytest.mark.parametrize("command", ["sigma", "verify"])
def test_out_writes_the_json_text(capsys, tmp_path, space_doc, walk_doc, command, output_format):
    """``--out`` holds the JSON text and a newline whatever ``--format`` shows on stdout."""
    argv = ["sigma", space_doc] if command == "sigma" else ["verify", walk_doc, "classify"]
    code, json_out, _ = run_cli(capsys, *argv)
    assert code == 0
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *argv, "--format", output_format, "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == json_out
    if output_format == "human":
        assert out != json_out and f"command: {command}" in out.splitlines()
    else:
        assert out == json_out


def test_human_format_renders_the_tail_bound_witness(capsys, tmp_path, walk_doc):
    """The failed hypothesis' witness, [step, [members]], is a list of a scalar and a list."""
    doc = json.loads(Path(walk_doc).read_text())
    doc["stopping_time"] = [1, 1, None, None]
    path = tmp_path / "no_floor.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "tail-bound", "--format", "human")
    assert code == 1
    assert "hypothesis_ok: False\n" in out
    assert (
        "  hypothesis_witness:\n"
        "    - 1\n"
        "    -\n"
        "      - 2\n"
        "      - 3\n"
        "  tail_chain:\n"
    ) in out


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


# One argv per subcommand, each of which would run to exit 0.
SUBCOMMANDS = {
    "sigma": ("cmd_sigma", lambda space, walk: ("sigma", space)),
    "verify": ("cmd_verify", lambda space, walk: ("verify", walk, "classify")),
    "simulate": ("cmd_simulate", lambda space, walk: ("simulate", "walk", "--n", "3")),
    "walk-spec": ("cmd_walk_spec", lambda space, walk: ("walk-spec", "--n", "3")),
}
BAD_SHARED_FLAGS = {
    "tolerance": ((), ("--tolerance", "-1"), "tolerance must be positive and finite"),
    "limit": ((), ("--limit", "0"), "enumeration limit must be at least 1"),
    "env-limit": (("MGL_ENUM_LIMIT", "many"), (),
                  "MGL_ENUM_LIMIT must be an integer, got 'many'"),
}


@pytest.mark.parametrize("case", BAD_SHARED_FLAGS)
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_bad_shared_flag_exits_two_before_any_work(
    capsys, monkeypatch, space_doc, walk_doc, command, case
):
    func, argv = SUBCOMMANDS[command]
    env, flags, message = BAD_SHARED_FLAGS[case]
    if env:
        monkeypatch.setenv(*env)
    ran = []
    monkeypatch.setattr(cli, func, ran.append)
    code, out, err = run_cli(capsys, *argv(space_doc, walk_doc), *flags)
    assert (code, out, err, ran) == (2, "", f"input error: {message}\n", [])


def test_bad_shared_flag_is_reported_before_missing_numpy(capsys, monkeypatch):
    monkeypatch.delitem(sys.modules, "mglab.montecarlo")
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert run_cli(capsys, "simulate", "walk", "--n", "3", "--tolerance", "-1") == (
        2, "", "input error: tolerance must be positive and finite\n")


@pytest.mark.parametrize("command", [*SUBCOMMANDS, "verify-failed-conclusion"])
def test_out_under_a_missing_directory_exits_two_with_empty_stdout(
    capsys, monkeypatch, tmp_path, space_doc, walk_doc, command
):
    """``--out`` is written before stdout, so an unwritable path is exit 2 whatever
    the verdict, and a failed conclusion prints neither its report nor its exit-3 line."""
    missing = tmp_path / "missing" / ("x.csv" if command == "simulate" else "x.json")
    if command == "verify-failed-conclusion":
        _fail_conclusion(monkeypatch, "transform")
        argv = ("verify", walk_doc, "transform")
    else:
        argv = SUBCOMMANDS[command][1](space_doc, walk_doc)
    code, out, err = run_cli(capsys, *argv, "--out", str(missing))
    assert (code, out) == (2, "")
    assert err == f"input error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not missing.parent.exists()


# Python's json reads Infinity, NaN and 1e400 as non-finite floats.
NON_FINITE_EDITS = {
    "weight-infinity": ('"weights": ["1/4"', '"weights": [Infinity'),
    "weight-1e400": ('"weights": ["1/4"', '"weights": [1e400'),
    "epsilon-infinity": ('"epsilon": "1/3"', '"epsilon": Infinity'),
    "process-nan": ('"process": [[0', '"process": [[NaN'),
    "process-infinity": ('"process": [[0', '"process": [[-Infinity'),
}


@pytest.mark.parametrize("case", [*NON_FINITE_EDITS, "tolerance-inf"])
def test_non_finite_numbers_are_input_errors(capsys, tmp_path, walk_doc, case):
    text = Path(walk_doc).read_text(encoding="utf-8")
    flags = []
    if case == "tolerance-inf":
        flags = ["--tolerance", "inf"]
    else:
        old, new = NON_FINITE_EDITS[case]
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", str(path), "tail-bound", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_pipe_ends_quietly_like_cat():
    child = subprocess.Popen(
        [sys.executable, "-m", "mglab.cli", "walk-spec", "--n", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.read(20)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == -signal.SIGPIPE
    assert err == b""


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mglab.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "sigma" in proc.stdout and "verify" in proc.stdout


# The exact commands never sample, so they must run where numpy cannot be imported.
NUMPY_BLOCKED = 'import sys\nsys.modules["numpy"] = None\n'
RUN_MAIN = "import sys\nimport mglab.cli\nsys.exit(mglab.cli.main(sys.argv[1:]))\n"
WALK_SPEC_ARGV = ("walk-spec", "--n", "4", "--stop-hit", "1", "--interval", "-1", "1",
                  "--window", "2", "--epsilon", "1/10")


def run_child_main(argv, numpy_blocked):
    code = (NUMPY_BLOCKED if numpy_blocked else "") + RUN_MAIN
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def small_walk_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "walk4.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*WALK_SPEC_ARGV, "--out", str(path)]) == 0
    return str(path)


THEOREMS = ("classify", "transform", "stopped", "optional-stopping", "upcrossing",
            "pythagoras", "tower", "kolmogorov", "tail-bound")


@pytest.mark.parametrize("command", [
    ("walk-spec",), ("sigma",),
    # the walk spec lacks the fields of some selectors and fails the premise of
    # others; on the reference document every selector passes
    *(("verify", doc, theorem) for doc in ("walk-spec", "reference") for theorem in THEOREMS),
], ids="-".join)
def test_exact_commands_run_with_numpy_blocked(command, small_walk_spec, space_doc, walk_doc):
    if command[0] == "verify":
        argv = ("verify", small_walk_spec if command[1] == "walk-spec" else walk_doc, command[2])
    else:
        argv = WALK_SPEC_ARGV if command[0] == "walk-spec" else ("sigma", space_doc)
    blocked = run_child_main(argv, numpy_blocked=True)
    assert b"Traceback" not in blocked[2], blocked[2].decode()
    assert blocked == run_child_main(argv, numpy_blocked=False)


@pytest.mark.parametrize("argv", [("simulate", "walk", "--n", "3"),
                                  ("simulate", "doubling", "--levels", "3")], ids="-".join)
def test_simulate_without_numpy_is_an_installation_error(argv):
    code, out, err = run_child_main(argv, numpy_blocked=True)
    assert (code, out) == (2, b"")
    assert err.count(b"\n") == 1 and b"Traceback" not in err, err.decode()
    assert err.startswith(b"installation error: mgl simulate needs numpy"), err.decode()


@pytest.mark.parametrize("argv", [("simulate", "walk", "--n", "3"),
                                  ("simulate", "doubling", "--levels", "3")], ids="-".join)
def test_simulate_without_numpy_in_process(capsys, monkeypatch, argv):
    """The same refusal in this process: the engine is imported afresh with numpy blocked."""
    monkeypatch.delitem(sys.modules, "mglab.montecarlo")
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert run_cli(capsys, *argv) == (2, "", (
        "installation error: mgl simulate needs numpy, which cannot be imported "
        "(import of numpy halted; None in sys.modules)\n"))


def test_simulate_with_the_engine_missing_is_an_internal_error(capsys, monkeypatch):
    """Only a missing numpy is an installation error; a missing engine is a defect."""
    monkeypatch.setitem(sys.modules, "mglab.montecarlo", None)
    assert run_cli(capsys, "simulate", "walk", "--n", "3") == (3, "", (
        "internal error: ModuleNotFoundError: import of mglab.montecarlo halted; "
        "None in sys.modules\n"))


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_entry_point_restores_sigpipe_and_exits_with_the_code_of_main(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(signal, "signal", lambda *args: calls.append(args))
    monkeypatch.setattr(sys, "argv", ["mgl", "walk-spec", "--n", "1"])
    with pytest.raises(SystemExit) as exit_:
        cli.entry_point()
    assert exit_.value.code == 0 and calls == [(signal.SIGPIPE, signal.SIG_DFL)]
    assert json.loads(capsys.readouterr().out)["process"] == [[0, 0], [1, -1]]


@pytest.mark.parametrize("module", ["mglab", "mglab.cli"])
def test_import_leaves_numpy_unloaded(module):
    code = f"import sys, {module}\nprint([m for m in sys.modules if m.split('.')[0] == 'numpy'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
