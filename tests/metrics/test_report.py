"""Unit tests for mask evaluation reports and the Table 2 formatter."""

import pytest

from repro.geometry import Layout, Rect, rasterize
from repro.metrics import MaskEvaluation, comparison_table, evaluate_mask


@pytest.fixture(scope="module")
def clip64():
    return Layout(extent=512.0, rects=[Rect(64, 216, 448, 296)],
                  name="report-clip")


class TestEvaluateMask:
    def test_full_evaluation(self, engine64, clip64):
        target = (rasterize(clip64, 64) >= 0.5).astype(float)
        evaluation = evaluate_mask(engine64, target, target, layout=clip64,
                                   name="raw-target", runtime_seconds=1.5)
        assert evaluation.name == "raw-target"
        assert evaluation.l2_px >= 0
        assert evaluation.l2_nm2 == evaluation.l2_px * 64.0
        assert evaluation.pvband_nm2 >= 0
        assert evaluation.epe_violations is not None
        assert evaluation.runtime_seconds == 1.5

    def test_without_layout_skips_epe(self, engine64, clip64):
        target = (rasterize(clip64, 64) >= 0.5).astype(float)
        evaluation = evaluate_mask(engine64, target, target)
        assert evaluation.epe_violations is None
        assert evaluation.neck_defects is not None

    def test_as_dict(self, engine64, clip64):
        target = (rasterize(clip64, 64) >= 0.5).astype(float)
        data = evaluate_mask(engine64, target, target).as_dict()
        assert set(data) >= {"name", "l2_nm2", "pvband_nm2"}


def _eval(name, l2, pvb, rt):
    return MaskEvaluation(name=name, l2_px=l2, l2_nm2=l2 * 64, pvband_nm2=pvb,
                          runtime_seconds=rt)


class TestComparisonTable:
    def test_format_contains_rows_and_ratio(self):
        columns = {
            "ILT": [_eval("c1", 100, 500, 10.0), _eval("c2", 200, 700, 12.0)],
            "GAN-OPC": [_eval("c1", 90, 450, 5.0), _eval("c2", 180, 650, 6.0)],
        }
        table = comparison_table(columns, baseline="ILT")
        assert "c1" in table and "c2" in table
        assert "average" in table and "ratio" in table
        # GAN L2 ratio = (90+180)/(100+200) = 0.9
        assert "0.900" in table

    def test_validates_empty(self):
        with pytest.raises(ValueError):
            comparison_table({})

    def test_validates_unequal_lengths(self):
        with pytest.raises(ValueError):
            comparison_table({"a": [_eval("c", 1, 1, 1)],
                              "b": []})

    def test_validates_unknown_baseline(self):
        with pytest.raises(ValueError):
            comparison_table({"a": [_eval("c", 1, 1, 1)]}, baseline="zzz")

    def test_default_baseline_is_first(self):
        columns = {"first": [_eval("c", 100, 100, 1.0)],
                   "second": [_eval("c", 50, 100, 1.0)]}
        table = comparison_table(columns)
        assert "0.500" in table
