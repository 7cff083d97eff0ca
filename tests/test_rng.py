import math
import os
import pathlib
import subprocess
import sys

import numpy as np

from refflow.rng import Estimate, estimate


def test_estimate_is_the_literal_formula():
    rng = np.random.default_rng(14)
    for n in (2, 3, 7, 100, 4097):
        v = rng.normal(loc=0.3, scale=2.0, size=n)
        got = estimate(v)
        assert np.array_equal([got.estimate, got.stderr], [v.mean(), v.std(ddof=1) / math.sqrt(n)])
        assert got.n == n
        assert type(got.estimate) is float and type(got.stderr) is float
    one = estimate([2.5])
    assert one == Estimate(2.5, math.inf, 1)
    assert one.inconclusive


def test_inconclusive_is_a_stderr_above_half_the_magnitude():
    for est in (2.0, -2.0):
        assert not Estimate(est, 0.999, 10).inconclusive
        assert not Estimate(est, 1.0, 10).inconclusive
        assert Estimate(est, 1.001, 10).inconclusive
    assert not Estimate(0.0, 0.0, 10).inconclusive
    assert Estimate(0.0, 1e-300, 10).inconclusive


def test_importing_the_cli_leaves_the_thread_pool_unimported():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, refflow.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
