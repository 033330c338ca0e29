"""Byte-for-byte CLI regression: stdout and exit code of fixed runs.

``tests/golden/expected.json`` holds the stdout and exit code of every case
below.  The three walk specs cover all nine ``verify`` selectors: a fair walk
with every spec field filled in; a p=1/3 walk with one zero-weight
outcome, which brings out witnesses, null atoms, exit 1 and
``hypothesis_witness``; and a fair walk in JSON-float halves with one
zero-weight outcome, whose interval endpoint ``a`` ties a terminal value,
which pins the float-versus-int types of the reported sums.  After an intended change to the output, re-capture
with ``PYTHONPATH=src python tests/test_golden.py``.
"""
import json
import sys
from pathlib import Path

import pytest

import mglab.cli as cli

GOLDEN = Path(__file__).with_name("golden")
EXPECTED = GOLDEN / "expected.json"

SELECTORS = (
    "classify", "transform", "stopped", "optional-stopping", "upcrossing",
    "pythagoras", "tower", "kolmogorov", "tail-bound",
)

CASES = {
    **{
        f"verify-{spec}-{theorem}": ["verify", f"{spec}.json", theorem]
        for spec in ("walk_half", "walk_third", "walk_float")
        for theorem in SELECTORS
    },
    "sigma-json": ["sigma", "space4.json"],
    "sigma-human": ["sigma", "space4.json", "--format", "human"],
    "simulate-walk": ["simulate", "walk", "--n", "6", "--p", "1/3",
                      "--paths", "500", "--seed", "7"],
    "simulate-doubling": ["simulate", "doubling", "--levels", "5", "--p", "1/2",
                          "--entry", "3", "--paths", "800", "--seed", "11"],
}


def _argv(case: str) -> list[str]:
    return [str(GOLDEN / a) if a.endswith(".json") else a for a in CASES[case]]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical(capsys, case):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[case]
    code = cli.main(_argv(case))
    out = capsys.readouterr().out
    assert code == expected["exit"]
    assert out == expected["stdout"]


def _capture() -> None:
    import contextlib
    import io

    captured = {}
    for case in sorted(CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(_argv(case))
        captured[case] = {"exit": code, "stdout": buf.getvalue()}
    EXPECTED.write_text(json.dumps(captured, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(captured)} cases to {EXPECTED}", file=sys.stderr)


if __name__ == "__main__":
    _capture()
