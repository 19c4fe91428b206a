"""Settings and helpers shared by every test module under ``tests``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import echometry.fisher

# Every falsifying example prints its @reproduce_failure blob, so a failure
# seen once can be replayed on another checkout without the local
# ``.hypothesis/`` example database.  Per-test @settings inherit this.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")

_SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, blas_threads=None, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter, with this checkout's ``src`` first on PYTHONPATH.

    ``blas_threads`` sets the OpenBLAS, OpenMP and MKL thread counts; the
    other keywords go to :func:`subprocess.run`.  Output is captured as text.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(_SRC), os.environ.get("PYTHONPATH", "")]))
    if blas_threads is not None:
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(blas_threads)))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)


@pytest.fixture
def clear_frames():
    """The readout's one-entry J_x frame cache, emptied before and after the test; the fixture's value empties it."""
    echometry.fisher._x_frame.cache_clear()
    yield echometry.fisher._x_frame.cache_clear
    echometry.fisher._x_frame.cache_clear()
