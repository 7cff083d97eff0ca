"""Run every experiment config in scripts/configs through the CLI.

Usage: python scripts/run_all.py [--output DIR] [--workers K] [--only KIND]
Each config gets its own output subdirectory; the summary table at the end
lists exit codes, the first 12 hex digits of each report.json's sha256 and
the verdicts, so two summaries diff to the configs whose reports differ.
Exits nonzero if any run failed.
"""

import argparse
import hashlib
import json
import pathlib
import sys
import time

from refflow import cli

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--output", default="runs")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--only", default=None, help="run only configs whose kind matches")
    args = ap.parse_args()

    results = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        kind = json.loads(path.read_text())["kind"]
        if args.only and kind != args.only:
            continue
        outdir = pathlib.Path(args.output) / path.stem
        t0 = time.time()
        rc = cli.main(["run", str(path), "--output", str(outdir), "--workers", str(args.workers)])
        manifest = json.loads((outdir / "manifest.json").read_text()) if (outdir / "manifest.json").exists() else {}
        report = outdir / "report.json"
        digest = hashlib.sha256(report.read_bytes()).hexdigest()[:12] if report.exists() else "-"
        results.append((path.stem, rc, time.time() - t0, digest, manifest.get("verdicts", {})))

    print()
    print(f"{'config':24s} {'exit':>4s} {'secs':>7s} {'report':12s}  verdicts")
    bad = 0
    for stem, rc, secs, digest, verdicts in results:
        flat = ", ".join(f"{k}={v}" for k, v in verdicts.items())
        print(f"{stem:24s} {rc:4d} {secs:7.1f} {digest:12s}  {flat}")
        bad += rc != 0
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
