"""Regenerate the golden reports that tests/test_golden.py compares runs with.

Usage: python scripts/golden_reports.py

The cases are the configs under scripts/configs except the slow
commutator_curve, and the benchmark workloads under perfbench/workloads at
seed 1. Each case is run through the CLI; tests/golden/<case>/report.json is
its report, and tests/golden/index.json holds its exit code and, per CSV, the
sha256 and the number of rows below the header. A change that moves a
reported number regenerates these files and says why.
"""

import csv
import hashlib
import json
import pathlib
import shutil
import sys
import tempfile

from refflow import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SLOW = {"commutator_curve"}
WORKLOAD_SEED = 1


def cases():
    """{case: config object}, in a fixed order."""
    out = {f"configs/{p.stem}": json.loads(p.read_text())
           for p in sorted((ROOT / "scripts" / "configs").glob("*.json")) if p.stem not in SLOW}
    for p in sorted((ROOT / "perfbench" / "workloads").glob("*.json")):
        out[f"workloads/{p.stem}"] = dict(json.loads(p.read_text())["config"], seed=WORKLOAD_SEED)
    return out


def run(config, outdir):
    """The exit code of the CLI run of config into outdir."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "config.json"
    path.write_text(json.dumps(config))
    return cli.main(["run", str(path), "--output", str(outdir / "out")])


def csv_digests(outdir):
    """{name: {"sha256", "rows"}} of the CSVs of a run's output directory."""
    out = {}
    for p in sorted(outdir.glob("*.csv")):
        with p.open(newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        out[p.name] = {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(), "rows": rows}
    return out


def main():
    index = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, config in cases().items():
            outdir = pathlib.Path(tmp) / case
            code = run(config, outdir)
            (GOLDEN / case).mkdir(parents=True, exist_ok=True)
            shutil.copyfile(outdir / "out" / "report.json", GOLDEN / case / "report.json")
            index[case] = {"exit_code": code, "csv": csv_digests(outdir / "out")}
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
