"""The scripts under scripts/ run to completion against the current API."""

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
