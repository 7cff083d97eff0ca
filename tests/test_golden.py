"""Runs reproduce the golden reports of tests/golden: every reported number
within the rounding tolerance of scripts/compare_reports.py, the same
verdicts and exit code, byte-identical CSVs, and as many RK4 steps in the
transport sweeps. scripts/golden_reports.py
regenerates the golden files."""

import importlib.util
import json
import pathlib
import shutil

import pytest

from refflow import transport

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_reports = _script("golden_reports")
compare_reports = _script("compare_reports")
CASES = golden_reports.cases()
INDEX = json.loads((golden_reports.GOLDEN / "index.json").read_text())


def test_every_case_has_a_golden_report():
    assert sorted(INDEX) == sorted(CASES)
    assert all((golden_reports.GOLDEN / case / "report.json").is_file() for case in CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_run_reproduces_golden_report(case, tmp_path, monkeypatch):
    step, calls = transport._step, []
    monkeypatch.setattr(transport, "_step", lambda *args: calls.append(1) or step(*args))
    code = golden_reports.run(CASES[case], tmp_path / "run")
    out = tmp_path / "run" / "out"
    fresh = tmp_path / "report"
    fresh.mkdir()
    shutil.copyfile(out / "report.json", fresh / "report.json")
    assert compare_reports.compare(golden_reports.GOLDEN / case, fresh) == []
    assert code == INDEX[case]["exit_code"]
    assert golden_reports.csv_digests(out) == INDEX[case]["csv"]
    assert len(calls) == INDEX[case]["rk4_steps"]
