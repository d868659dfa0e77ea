"""Quality-regression gate tests (benchmarks/check_quality_regression.py).

The gate is the CI fault line: it must pass on identical records, fail
on a seeded regression, and refuse to compare mismatched suites — the
fault-injection cases here are the proof the gate actually gates.
"""

import copy
import importlib.util
import json
import os

import pytest

from repro.runs import QUALITY_SCHEMA_VERSION

_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "benchmarks",
                       "check_quality_regression.py")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_quality", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(clip_overrides=None):
    clips = {
        "ILT": {"iccad13-01": {"l2_nm2": 100.0, "pvband_nm2": 50.0,
                               "epe_violations": 0.0},
                "iccad13-02": {"l2_nm2": 200.0, "pvband_nm2": 60.0,
                               "epe_violations": 2.0}},
        "PGAN-OPC": {"iccad13-01": {"l2_nm2": 90.0, "pvband_nm2": 45.0,
                                    "epe_violations": 0.0}},
    }
    for (method, clip, metric), value in (clip_overrides or {}).items():
        clips[method][clip][metric] = value
    aggregates = {
        method: {
            metric: sum(m[metric] for m in per_clip.values())
            / len(per_clip)
            for metric in ("l2_nm2", "pvband_nm2", "epe_violations")
        }
        for method, per_clip in clips.items()
    }
    return {"schema": QUALITY_SCHEMA_VERSION, "kind": "quality",
            "suite": "table2-quick", "generated_utc": "now",
            "git_rev": "abc", "config_hash": "cafe",
            "clips": clips, "aggregates": aggregates}


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


class TestWorse:
    def test_must_exceed_both_tolerances(self, gate):
        # +10% but only +0.5 absolute: inside abs-tol, not a regression
        assert not gate._worse(5.0, 5.5, rel_tol=0.05, abs_tol=1.0)
        # +2 absolute but only +1%: inside rel-tol
        assert not gate._worse(200.0, 202.0, rel_tol=0.05, abs_tol=1.0)
        # beyond both
        assert gate._worse(100.0, 110.0, rel_tol=0.05, abs_tol=1.0)

    def test_improvement_never_regresses(self, gate):
        assert not gate._worse(100.0, 90.0, rel_tol=0.05, abs_tol=1.0)
        assert not gate._worse(0.0, 0.0, rel_tol=0.05, abs_tol=1.0)

    def test_zero_baseline_count_metrics(self, gate):
        # 0 -> 1 is off-by-one noise (abs tol); 0 -> 5 fails
        assert not gate._worse(0.0, 1.0, rel_tol=0.05, abs_tol=1.0)
        assert gate._worse(0.0, 5.0, rel_tol=0.05, abs_tol=1.0)


class TestCompare:
    def test_identical_records_no_regressions(self, gate):
        lines, regressions = gate.compare(_record(), _record(),
                                          rel_tol=0.05, abs_tol=1.0,
                                          skip=[])
        assert regressions == []
        assert any("ILT/iccad13-01.l2_nm2" in line for line in lines)
        assert any("ILT/mean.l2_nm2" in line for line in lines)

    def test_seeded_regression_flagged_per_clip_and_mean(self, gate):
        worse = _record({("ILT", "iccad13-01", "l2_nm2"): 150.0})
        _, regressions = gate.compare(_record(), worse, rel_tol=0.05,
                                      abs_tol=1.0, skip=[])
        assert "ILT/iccad13-01.l2_nm2" in regressions
        assert "ILT/mean.l2_nm2" in regressions

    def test_skip_substring_suppresses(self, gate):
        worse = _record({("ILT", "iccad13-01", "l2_nm2"): 150.0})
        _, regressions = gate.compare(_record(), worse, rel_tol=0.05,
                                      abs_tol=1.0,
                                      skip=["iccad13-01", "mean"])
        assert regressions == []

    @pytest.mark.parametrize("absent", ["null", "missing"])
    def test_null_or_missing_candidate_metric_regresses(self, gate, absent):
        candidate = _record()
        metrics = candidate["clips"]["ILT"]["iccad13-01"]
        if absent == "null":
            metrics["pvband_nm2"] = None
        else:
            del metrics["pvband_nm2"]
        candidate["aggregates"]["ILT"]["pvband_nm2"] = None
        lines, regressions = gate.compare(_record(), candidate,
                                          rel_tol=0.05, abs_tol=1.0,
                                          skip=[])
        assert regressions == ["ILT/iccad13-01.pvband_nm2",
                               "ILT/mean.pvband_nm2"]
        assert any(absent in line and "REGRESSION" in line
                   for line in lines)

    def test_missing_clip_and_mean_regress(self, gate):
        candidate = _record()
        del candidate["clips"]["ILT"]["iccad13-02"]
        del candidate["aggregates"]["PGAN-OPC"]
        lines, regressions = gate.compare(_record(), candidate,
                                          rel_tol=0.05, abs_tol=1.0,
                                          skip=[])
        assert regressions == [
            "ILT/iccad13-02.epe_violations", "ILT/iccad13-02.l2_nm2",
            "ILT/iccad13-02.pvband_nm2", "PGAN-OPC/mean.epe_violations",
            "PGAN-OPC/mean.l2_nm2", "PGAN-OPC/mean.pvband_nm2"]
        assert sum("missing" in line and "REGRESSION" in line
                   for line in lines) == 6

    def test_baseline_only_method_noted_not_compared(self, gate):
        candidate = _record()
        del candidate["clips"]["PGAN-OPC"]
        del candidate["aggregates"]["PGAN-OPC"]
        lines, regressions = gate.compare(_record(), candidate,
                                          rel_tol=0.05, abs_tol=1.0,
                                          skip=[])
        assert regressions == []
        assert any("baseline only" in line for line in lines)


class TestMain:
    def _args(self, baseline, candidate, *extra):
        return ["--baseline", baseline, "--candidate", candidate,
                *extra]

    def test_identical_records_pass(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _record())
        cand = _write(tmp_path, "cand.json", _record())
        assert gate.main(self._args(base, cand)) == 0
        assert "no quality regressions" in capsys.readouterr().out

    def test_seeded_regression_fails(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _record())
        cand = _write(tmp_path, "cand.json",
                      _record({("ILT", "iccad13-01", "l2_nm2"): 150.0}))
        assert gate.main(self._args(base, cand)) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "ILT/iccad13-01.l2_nm2" in out

    def test_nan_table2_record_fails_the_gate(self, gate, tmp_path,
                                              capsys):
        from repro.metrics.report import MaskEvaluation
        from repro.runs import (quality_record_from_table2,
                                write_quality_record)

        def written(name, pvband):
            class Result:
                columns = {"ILT": [MaskEvaluation(
                    name="iccad13-01", l2_px=1.0, l2_nm2=100.0,
                    pvband_nm2=pvband, epe_violations=0)]}
            return write_quality_record(
                quality_record_from_table2(Result(), "table2-quick"),
                str(tmp_path / name))

        base = written("base.json", 50.0)
        cand = written("cand.json", float("nan"))
        assert gate.main(self._args(base, cand)) == 1
        out = capsys.readouterr().out
        assert "ILT/iccad13-01.pvband_nm2" in out and "null" in out

    def test_baseline_with_a_clip_deleted_fails(self, gate, tmp_path,
                                                capsys):
        """The committed baseline, with iccad13-03 deleted from every
        method, fails the gate as CI runs it."""
        baseline = os.path.join(os.path.dirname(_SCRIPT),
                                "BASELINE_quality.json")
        with open(baseline) as handle:
            candidate = json.load(handle)
        for clips in candidate["clips"].values():
            del clips["iccad13-03"]
        cand = _write(tmp_path, "cand.json", candidate)
        assert gate.main(self._args(
            baseline, cand, "--require", "ILT", "--require", "GAN-OPC",
            "--require", "PGAN-OPC")) == 1
        out = capsys.readouterr().out
        for method in ("ILT", "GAN-OPC", "PGAN-OPC"):
            assert f"{method}/iccad13-03.l2_nm2" in out

    def test_improvement_passes(self, gate, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _record())
        cand = _write(tmp_path, "cand.json",
                      _record({("ILT", "iccad13-01", "l2_nm2"): 50.0}))
        assert gate.main(self._args(base, cand)) == 0
        assert "improved" in capsys.readouterr().out

    def test_suite_mismatch_fails(self, gate, tmp_path, capsys):
        other = copy.deepcopy(_record())
        other["suite"] = "table2-paper"
        base = _write(tmp_path, "base.json", _record())
        cand = _write(tmp_path, "cand.json", other)
        assert gate.main(self._args(base, cand)) == 1
        assert "suite mismatch" in capsys.readouterr().out

    def test_missing_required_method_fails(self, gate, tmp_path, capsys):
        candidate = _record()
        del candidate["clips"]["PGAN-OPC"]
        base = _write(tmp_path, "base.json", _record())
        cand = _write(tmp_path, "cand.json", candidate)
        assert gate.main(self._args(base, cand, "--require",
                                    "PGAN-OPC")) == 1
        assert "required methods missing" in capsys.readouterr().out

    def test_corrupt_candidate_is_pointed_error(self, gate, tmp_path):
        base = _write(tmp_path, "base.json", _record())
        bad = tmp_path / "cand.json"
        bad.write_text("{oops")
        with pytest.raises(SystemExit, match="not valid JSON"):
            gate.main(self._args(base, str(bad)))

    def test_loose_tolerance_absorbs_regression(self, gate, tmp_path):
        base = _write(tmp_path, "base.json", _record())
        cand = _write(tmp_path, "cand.json",
                      _record({("ILT", "iccad13-01", "l2_nm2"): 150.0}))
        assert gate.main(self._args(base, cand, "--rel-tol", "2.0")) == 0
