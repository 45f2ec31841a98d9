"""Golden `schull compute` reports: refactors must leave reports unchanged.

``data/golden_reports.json`` holds the report (or the exit code, where the
pair is unsupported) of every (stat, method) pair on two seeded datasets,
``golden_d2n8.json`` (``gen random --n 8 --dim 2 --seed 101``) and
``golden_d3n6.json`` (``gen random --n 6 --dim 3 --seed 102``), with the
sampling estimator at a fixed seed and gamma.  Every field must match
exactly except ``value`` and ``bounds``, which must match to a relative
1e-12.  Every cell of both sampling runs is small enough to be summed
exactly, so their values are the width oracle's.
"""

import json
from pathlib import Path

import pytest

from schull.cli import main

DATA = Path(__file__).parent / "data"
CASES = json.loads((DATA / "golden_reports.json").read_text())
FLOAT_FIELDS = ("value", "bounds")


def _case_id(case):
    return f"{case['dataset']}:{case['args'][1]}.{case['args'][3]}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_compute_report_matches_golden(case, capsys):
    rc = main(["compute", "--input", str(DATA / case["dataset"]), *case["args"]])
    out = capsys.readouterr().out
    assert rc == case["exit"]
    want = case["report"]
    if want is None:
        assert out == ""
        return
    got = json.loads(out)
    assert {k: v for k, v in got.items() if k not in FLOAT_FIELDS} == {
        k: v for k, v in want.items() if k not in FLOAT_FIELDS
    }
    assert got["value"] == pytest.approx(want["value"], rel=1e-12, abs=0.0)
    if want["bounds"] is None:
        assert got["bounds"] is None
    else:
        assert got["bounds"] == pytest.approx(want["bounds"], rel=1e-12, abs=0.0)


def test_fpras_goldens_are_exact():
    oracle = {
        case["dataset"]: case["report"]["value"]
        for case in CASES
        if case["args"][1::2] == ["width", "oracle"]
    }
    fpras = [case for case in CASES if case["args"][1:4:2] == ["width", "fpras"]]
    assert len(fpras) == len(oracle) == 2
    for case in fpras:
        assert case["report"]["sampled_cells"] == 0
        assert case["report"]["value"] == pytest.approx(
            oracle[case["dataset"]], rel=1e-12, abs=0.0
        )
