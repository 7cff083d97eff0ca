"""The scripts under scripts/ run to completion against the current API."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=600)


def test_jensen_table_runs():
    proc = run_script("jensen_table.py")
    assert proc.returncode == 0, proc.stderr
    assert "-- 1-D slice" in proc.stdout and "-- 2-D slice" in proc.stdout


def test_refinement_study_writes_one_csv_per_problem(tmp_path):
    proc = run_script("refinement_study.py", "--output", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.glob("weak_refinement_*.csv"))


def test_compare_reports_prints_what_moved_beyond_the_tolerance(tmp_path):
    def tree(name, residual, verdict, cell):
        out = tmp_path / name / "verify_suite_1d"
        out.mkdir(parents=True)
        report = {"verdicts": {"weak": verdict}, "details": {"weak": {"residual": residual, "n": 3}}}
        (out / "report.json").write_text(json.dumps(report))
        (out / "checks.csv").write_text(f"check,value\nweak,{cell}\n")
        (out / "manifest.json").write_text(json.dumps({"wall_clock_seconds": residual}))

    tree("a", 1.0, "pass", "0.5")
    tree("b", 1.0 + 1e-14, "pass", "0.5")
    tree("c", 1.0 + 1e-9, "fail", "0.25")
    same = run_script("compare_reports.py", str(tmp_path / "a"), str(tmp_path / "b"))
    assert (same.returncode, same.stdout) == (0, "")
    moved = run_script("compare_reports.py", str(tmp_path / "a"), str(tmp_path / "c"))
    assert moved.returncode == 1, moved.stderr
    lines = moved.stdout.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("verify_suite_1d/checks.csv[1][1]: 0.5 -> 0.25")
    assert "verify_suite_1d/report.json.details.weak.residual: 1.0 -> 1.000000001" in lines[1]
    assert lines[2] == "verify_suite_1d/report.json.verdicts.weak: 'pass' -> 'fail'"
    strict = run_script("compare_reports.py", str(tmp_path / "a"), str(tmp_path / "b"), "--rtol", "0", "--atol", "0")
    assert strict.returncode == 1 and "residual" in strict.stdout


def test_quadrature_table_misses_stay_within_the_gate_below_the_cap():
    proc = run_script("quadrature_table.py", "--levels", "1", "2", "--max-radius", "4")
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()[2:]]
    # two reactions, two levels, radius classes 1, 2 and 4
    assert len(lines) == 12 and all(len(cols) == 5 for cols in lines)
    assert {cols[0] for cols in lines} == {"neg_arctan", "cubic_sat"}
    assert all(float(cols[4]) <= 1e-12 for cols in lines)
