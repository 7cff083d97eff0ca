"""Compare two output trees of scripts/run_all.py number by number.

Usage: python scripts/compare_reports.py A B [--rtol R] [--atol T]

Walks both trees for report.json files and CSVs, pairs them by relative
path, and prints every number of B that differs from A's by more than
max(R * |a|, T), with its relative and absolute move, and every value that is
not a number (a verdict, a name, a flag) that differs. A file, key, row or
column present on one side only is printed too. Exits 1 if it printed
anything, else 0. The defaults, R = 1e-12 and T = 1e-16, are the rounding
tolerance of a change that reorders floating-point work.
"""

import argparse
import csv
import json
import math
import pathlib
import sys

# rounding tolerance of a change that reorders floating-point work
RTOL, ATOL = 1e-12, 1e-16


def tree(root):
    """The report.json and CSV files under root, by path relative to it."""
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*"))
            if p.is_file() and (p.name == "report.json" or p.suffix == ".csv")}


def number(value):
    """value as a float if it is a JSON number or a CSV cell that reads as one, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def differences(a, b, path, rtol, atol):
    """Lines for what differs between the parsed values a and b at path."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = [f"{path}.{k}: only in {'A' if k in a else 'B'}" for k in sorted(a.keys() ^ b.keys())]
        for k in a.keys() & b.keys():
            out += differences(a[k], b[k], f"{path}.{k}", rtol, atol)
        return sorted(out)
    if isinstance(a, list) and isinstance(b, list):
        out = [f"{path}: length {len(a)} -> {len(b)}"] if len(a) != len(b) else []
        for i, (x, y) in enumerate(zip(a, b)):
            out += differences(x, y, f"{path}[{i}]", rtol, atol)
        return out
    x, y = number(a), number(b)
    if x is None or y is None:
        return [] if a == b else [f"{path}: {a!r} -> {b!r}"]
    if x == y or (math.isnan(x) and math.isnan(y)):
        return []
    moved = abs(y - x)
    if moved <= max(rtol * abs(x), atol):
        return []
    rel = moved / abs(x) if x else math.inf
    return [f"{path}: {x!r} -> {y!r} (rel {rel:.3g}, abs {moved:.3g})"]


def read(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as f:
        return list(csv.reader(f))


def compare(a_root, b_root, rtol=RTOL, atol=ATOL):
    """Every line of difference between the two trees."""
    a, b = tree(a_root), tree(b_root)
    out = [f"{name}: only in {'A' if name in a else 'B'}" for name in sorted(a.keys() ^ b.keys())]
    for name in sorted(a.keys() & b.keys()):
        out += differences(read(a[name]), read(b[name]), name, rtol, atol)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=pathlib.Path)
    ap.add_argument("b", type=pathlib.Path)
    ap.add_argument("--rtol", type=float, default=RTOL)
    ap.add_argument("--atol", type=float, default=ATOL)
    args = ap.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            ap.error(f"{root} is not a directory")
    lines = compare(args.a, args.b, args.rtol, args.atol)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
