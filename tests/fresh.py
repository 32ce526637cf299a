"""How the tests start `python -m treewaves` in a fresh process: the checkout's
environment, one peak-RSS wrapper, and one memoised run per README line and
environment."""

import functools
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the command after it in a child and writes the child's peak RSS in MB to
# stderr; a fresh wrapper, so that no earlier child of the test run sets the maximum.
RSS_WRAPPER = """
import resource, subprocess, sys
done = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, check=True)
sys.stdout.buffer.write(done.stdout)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, file=sys.stderr)
"""


def env(**extra):
    """This environment with the checkout's `src` on PYTHONPATH, plus `extra`."""
    out = {**os.environ, **extra}
    out["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return out


def peak_rss_mb(argv):
    """`treewaves argv` in a fresh process: its stdout and its peak RSS in MB."""
    done = subprocess.run([sys.executable, "-c", RSS_WRAPPER, sys.executable, "-m", "treewaves",
                           *argv], capture_output=True, text=True, env=env(), timeout=300)
    assert done.returncode == 0, done.stderr[-500:]
    return done.stdout, float(done.stderr.split()[-1])


class LineRun(NamedTuple):
    returncode: int
    stderr: str
    outputs: tuple  # the bytes written to --out and, if the line writes one, its chain CSV


@functools.cache
def line_run(line, hash_seed="1", blas_threads="1"):
    """One `treewaves ...` line, as the README writes it, in a fresh interpreter
    with RuntimeWarning as an error, PYTHONHASHSEED=hash_seed and
    OPENBLAS_NUM_THREADS=blas_threads; each line and environment runs once."""
    with tempfile.TemporaryDirectory() as tmp:
        out, chain = Path(tmp, "out"), Path(tmp, "chain.csv")
        argv = [str(chain) if a == "chain.csv" else a for a in shlex.split(line, comments=True)[1:]]
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "treewaves", *argv,
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=env(PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS=blas_threads))
        return LineRun(done.returncode, done.stderr,
                       tuple(p.read_bytes() for p in (out, chain) if p.exists()))
