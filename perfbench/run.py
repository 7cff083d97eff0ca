"""refflow's benchmark: closed-loop `refflow run` processes, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a refflow checkout; refflow is imported from its `src`.
The workload's config (perfbench/workloads/NAME.json) gets the seed N and is
run as a fresh `python3 -m refflow.cli run` process, again and again, each
started when the previous one has exited, until S seconds have passed. Every
run pays interpreter start, imports, cache fill and basis set-up, as a user's
run does. The child's BLAS is pinned to one thread.

A run counts as failed, and its timings are dropped, when its exit code is
not 0, when its verdicts differ from the workload's recorded all-pass set, or
when its report.json differs from the other runs of the same source tree and
seed (digests are kept in .perfbench_out/digests.json across invocations).

With --trace 0 the last line of standard output gives the end-to-end metrics
of BENCHMARK.json, as medians over the successful runs. With --trace 1 one
more run follows in a traced process (perfbench/traced_child.py), and the
last line gives the per-layer metrics. Lines before it describe the machine
and each run.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import spans

BENCH_DIR = pathlib.Path(__file__).resolve().parent
WORKLOADS = BENCH_DIR / "workloads"
# every run must have ended by then, so the benchmark exits within 180 s
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here (no refflow source, unknown workload)."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def source_digest(src):
    """sha256 over the refflow package's .py files, names and contents."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read(path):
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return None


def environment(root, src_sha):
    """The machine, the toolchain and the code that the numbers belong to."""
    import numpy

    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    git_sha = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        git_sha = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_thread_env": THREAD_ENV,
        "git_sha": git_sha,
        "src_sha256": src_sha,
    }


def spawn(cmd, root, log, timeout):
    """Run cmd to completion; (exit code, wall seconds spawn to exit, rusage)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


class Gate:
    """The correctness gate: exit code, verdicts, and one report digest per source and seed."""

    def __init__(self, expected_verdicts, record_path, key):
        self.expected = expected_verdicts
        self.record_path = record_path
        self.key = key
        self.record = json.loads(record_path.read_text()) if record_path.exists() else {}

    def check(self, code, run_dir):
        """None when the run is correct, else why it failed."""
        if code != 0:
            return f"exit code {code}"
        try:
            manifest = json.loads((run_dir / "manifest.json").read_text())
            report = (run_dir / "report.json").read_bytes()
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}"
        if manifest.get("verdicts") != self.expected:
            return f"verdicts differ: {manifest.get('verdicts')}"
        digest = hashlib.sha256(report).hexdigest()
        known = self.record.get(self.key)
        if known is None:
            self.record[self.key] = digest
            tmp = self.record_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.record, indent=1, sort_keys=True))
            tmp.replace(self.record_path)
        elif digest != known:
            return f"report.json digest {digest[:12]} differs from {known[:12]}"
        return None


def run_workload(args, root):
    src = root / "src" / "refflow"
    if not (src / "cli.py").is_file():
        raise BenchError(f"no refflow source at {src}: run from the root of a refflow checkout")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    wl_path = WORKLOADS / f"{args.workload}.json"
    if not wl_path.is_file():
        raise BenchError(f"unknown workload {args.workload!r}")
    workload = json.loads(wl_path.read_text())

    t_start = time.perf_counter()
    src_sha = source_digest(src)
    print("env", json.dumps(environment(root, src_sha), sort_keys=True), flush=True)

    out_root = root / ".perfbench_out"
    out = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        return measure(args, root, bench, workload, out, t_start, src_sha)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(args, root, bench, workload, out, t_start, src_sha):
    config = dict(workload["config"], seed=args.seed)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    gate = Gate(workload["verdicts"], out.parent / "digests.json", f"{src_sha}:{args.workload}:{args.seed}")

    def timeout():
        return DEADLINE_S - (time.perf_counter() - t_start)

    def one(k, cmd_head):
        run_dir = out / f"run-{k}"
        cmd = cmd_head + ["run", str(cfg_path), "--output", str(run_dir), "--workers", "1"]
        code, wall, usage = spawn(cmd, root, out / f"run-{k}.log", timeout())
        why = gate.check(code, run_dir)
        rec = {"run": k, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0, "failed": why}
        if why is None:
            manifest = json.loads((run_dir / "manifest.json").read_text())
            rec["setup_s"] = wall - manifest["wall_clock_seconds"]
        shutil.rmtree(run_dir, ignore_errors=True)
        print("run", json.dumps(rec), flush=True)
        return rec

    runs = []
    loop_start = time.perf_counter()
    while not runs or time.perf_counter() - loop_start < args.seconds:
        runs.append(one(len(runs), [sys.executable, "-m", "refflow.cli"]))
    good = [r for r in runs if r["failed"] is None]

    if args.trace:
        spans_path = out / "spans.json"
        traced = one(len(runs), [sys.executable, str(BENCH_DIR / "traced_child.py"), str(spans_path)])
        runs.append(traced)
        values = spans.aggregate(json.loads(spans_path.read_text())) if traced["failed"] is None else {}
        untraced_wall = statistics.median(r["wall_s"] for r in good) if good else traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
        values["cli.cpu_s"] = statistics.median(r["cpu_s"] for r in good) if good else 0.0
        declared = bench["per_layer"]
    else:
        values = {m: statistics.median(r[m] for r in good) for m in ("wall_s", "setup_s", "peak_rss_mb")} if good else {}
        declared = bench["end_to_end"]

    failed = sum(r["failed"] is not None for r in runs)
    values["failed_runs"] = failed / len(runs)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and failed == 0:
        raise BenchError(f"BENCHMARK.json names metrics this benchmark does not produce: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    try:
        result = run_workload(args, root)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
