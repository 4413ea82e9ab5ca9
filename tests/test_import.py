"""Importing vsl: numpy loads with one OpenBLAS thread unless the user set one.

Each test starts a fresh interpreter, because OpenBLAS reads
OPENBLAS_NUM_THREADS only once, when numpy loads it.
"""

import json
import os
import subprocess
import sys

import pytest

import vsl

PROBE = (
    "import json, os, vsl; "
    "print(json.dumps([len(os.listdir('/proc/self/task')), "
    "os.environ.get('OPENBLAS_NUM_THREADS')]))"
)


def _import_vsl(blas_threads: str | None):
    """(OS threads, OPENBLAS_NUM_THREADS) after `import vsl` in a new process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(vsl.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    threads, value = json.loads(proc.stdout)
    return threads, value


@pytest.fixture(scope="module")
def threaded_openblas():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    threads, value = _import_vsl("2")
    if threads < 2:
        pytest.skip("OPENBLAS_NUM_THREADS=2 starts no second thread: no threaded OpenBLAS")
    return threads, value


def test_import_starts_one_thread_and_leaves_environ_alone(threaded_openblas):
    assert _import_vsl(None) == (1, None)


def test_explicit_openblas_threads_win(threaded_openblas):
    assert threaded_openblas == (2, "2")
