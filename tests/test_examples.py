"""Smoke tests: every example and benchmark script imports, and the
shipped examples run end to end on tiny grids."""

import glob
import importlib.util
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
EXAMPLES = os.path.join(ROOT, "examples")
SCRIPTS = sorted(
    glob.glob(os.path.join(EXAMPLES, "*.py"))
    + glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py"))
    + glob.glob(os.path.join(ROOT, "benchmarks", "check_*.py"))
    + [os.path.join(ROOT, "benchmarks", "e2e_pairs.py")])


def _load_path(path, prefix):
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(f"{prefix}_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _load(name):
    return _load_path(os.path.join(EXAMPLES, f"{name}.py"), "examples")


@pytest.mark.parametrize("path", SCRIPTS, ids=os.path.basename)
def test_script_loads(path):
    """Top-level code only (each ``main()`` is guarded): a script that
    imports a name the package no longer has fails here."""
    prefix = os.path.basename(os.path.dirname(path))
    _load_path(path, f"load_{prefix}")


def test_process_window_study_smoke(capsys):
    study = _load("process_window_study")
    windows = study.main(grid=32, ilt_iterations=5, verbose=False)
    assert set(windows) == {"no-OPC (target as mask)", "SRAF-assisted",
                            "ILT-optimized"}
    for window in windows.values():
        assert window.l2_error.shape == (3, 5)  # defocus rows x dose cols
    assert capsys.readouterr().out == ""


def test_quickstart_smoke(tmp_path):
    quickstart = _load("quickstart")
    results = quickstart.main(grid=32, mb_iterations=2, ilt_iterations=5,
                              pretrain_iterations=2, refine_iterations=3,
                              dataset_size=2, out_dir=str(tmp_path))
    assert set(results) == {"no-OPC", "MB-OPC", "ILT", "GAN-OPC"}
    for evaluation in results.values():
        assert evaluation.l2_nm2 >= 0.0
    assert (tmp_path / "ganopc_wafer.pgm").exists()
