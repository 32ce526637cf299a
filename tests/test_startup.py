"""A fresh process loads only the scipy subpackages its subcommand or sampler calls,
and no scipy at all until one of them does."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import sys

import numpy as np
import treewaves
import treewaves.cli as cli

SUBPACKAGES = ("special", "optimize", "integrate", "interpolate", "linalg", "sparse", "stats")
tmp = sys.argv[1]


def loaded():
    return sorted(s for s in SUBPACKAGES if "scipy." + s in sys.modules)


assert loaded() == [], loaded()
assert "scipy" not in sys.modules
SCIPY_FREE = [
    ["profile", "--d", "3", "--lambda", "0", "--n", "12"],
    ["sample-ball", "--d", "3", "--lambda", "1", "--radius", "2", "--sampler", "recursive"],
    ["sample-ball", "--d", "3", "--lambda", "1", "--radius", "2", "--sampler", "dense"],
    ["sample-path", "--d", "3", "--lambda", "1", "--n", "20"],
    ["verify", "--d", "3", "--lambda", "0", "--radius", "2", "--reps", "3", "--sampler", "both"],
    ["survival", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "5", "--method", "smc",
     "--particles", "200"],
    ["survival", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "5", "--method", "direct",
     "--reps", "200"],
    ["rate", "--d", "3", "--lambda", "0", "--alphas=0", "--m", "16"],
]
for i, argv in enumerate(SCIPY_FREE):
    assert cli.run(argv + ["--out", f"{tmp}/out{i}"]) == 0, argv
    assert loaded() == [], (argv, loaded())
    assert "scipy" not in sys.modules, argv

treewaves.sample_lambda_many(3, 1000, np.random.default_rng(0))
treewaves.kesten_mckay_cdf(3, 0.5)
assert loaded() == [], loaded()

gibbs = ["gibbs", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "5", "--sweeps", "20",
         "--burnin", "5"]
assert cli.run(gibbs + ["--out", f"{tmp}/gibbs"]) == 0
assert loaded() == ["special"], loaded()

sys.argv = ["treewaves", "bounds", "--d", "3", "--lambda", "0", "--out", f"{tmp}/bounds"]
try:
    cli.main()
except SystemExit as exc:
    assert exc.code == 0, exc.code
else:
    raise AssertionError("main() returned without exiting")
print("ok")
"""


def test_subcommands_load_only_the_scipy_they_call(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
    assert (tmp_path / "bounds").stat().st_size > 0


INVALID_CHILD = r"""
import sys

import treewaves.cli as cli

SUBPACKAGES = ("special", "optimize", "integrate", "interpolate", "linalg", "sparse", "stats")
common = ["--d", "3", "--lambda", "0"]
for argv in (
    ["threshold", "--tol", "0"],
    ["threshold", "--m", "5000"],
    ["threshold", "--u-max-offset", "nan"],
):
    assert cli.run(argv[:1] + common + argv[1:]) == 2, argv
    loaded = sorted(s for s in SUBPACKAGES if "scipy." + s in sys.modules)
    assert loaded == [], (argv, loaded)
print("ok")
"""


def test_invalid_threshold_inputs_exit_2_before_any_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", INVALID_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
