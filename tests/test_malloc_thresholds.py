"""Importing ``repro`` fixes glibc's malloc thresholds, so arrays a
training step frees are reused by the next step, not unmapped and
faulted back in (DESIGN.md §10)."""

import ctypes
import os
import subprocess
import sys

import pytest

pytest.importorskip("resource")  # the script reads ru_minflt

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "src")

#: 20 rounds of two 512 KiB arrays, as a batch-4 128 px activation and
#: its gradient: glibc's adaptive thresholds fault about 4,500 pages in
#: a fresh process.
_SCRIPT = """
import resource
import repro
import numpy as np

def step():
    a = np.empty((4, 1, 128, 128))
    a.fill(1.0)
    b = a * 2.0
    del a, b

step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_freed_arrays_are_reused_without_page_faults():
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    faults = int(done.stdout.split()[-1])
    assert faults < 500, f"{faults} minor faults in 20 rounds"
