"""Shared fixtures for the test suite.

Kernel construction is the most expensive setup step, so kernel sets
and engines for the standard small grids are session-scoped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.litho import KernelSet, LithoConfig, LithoEngine, build_kernels


@pytest.fixture(autouse=True)
def _isolated_runs_dir(tmp_path, monkeypatch):
    """Keep run-ledger records out of the working tree: commands that
    record runs (ilt/train/flow/table2) default to ``.repro_runs/`` in
    the cwd unless ``REPRO_RUNS_DIR`` points elsewhere."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / ".repro_runs"))


@pytest.fixture(scope="session")
def litho32() -> LithoConfig:
    return LithoConfig.small(32)


@pytest.fixture(scope="session")
def litho64() -> LithoConfig:
    return LithoConfig.small(64)


@pytest.fixture(scope="session")
def kernels32(litho32) -> KernelSet:
    return build_kernels(litho32)


@pytest.fixture(scope="session")
def kernels64(litho64) -> KernelSet:
    return build_kernels(litho64)


@pytest.fixture(scope="session")
def engine32(kernels32) -> LithoEngine:
    return LithoEngine.for_kernels(kernels32)


@pytest.fixture(scope="session")
def engine64(kernels64) -> LithoEngine:
    return LithoEngine.for_kernels(kernels64)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def numeric_gradient(func, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``array``.

    The function must read ``array`` afresh on each call (the fixture
    mutates it in place and restores it).
    """
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        upper = func()
        array[index] = original - eps
        lower = func()
        array[index] = original
        grad[index] = (upper - lower) / (2.0 * eps)
        iterator.iternext()
    return grad
