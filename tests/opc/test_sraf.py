"""Unit tests for rule-based SRAF insertion."""

import pytest

from repro.geometry import Layout, Rect, binarize, rasterize
from repro.metrics import evaluate_mask, squared_l2
from repro.opc import (SrafConfig, assisted_mask_layout, candidate_bars,
                       insert_srafs)


def _wire_clip():
    return Layout(extent=512.0, rects=[Rect(96, 216, 416, 296)], name="w")


class TestSrafConfig:
    @pytest.mark.parametrize("kwargs", [
        {"width": 0.0},
        {"offset": -1.0},
        {"min_length": 0.0},
        {"end_pullback": -1.0},
        {"clearance": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SrafConfig(**kwargs)


class TestCandidateBars:
    def test_horizontal_wire_gets_two_long_bars(self):
        rect = Rect(0, 0, 400, 80)
        config = SrafConfig()
        bars = candidate_bars(rect, config)
        horizontal = [b for b in bars if b.is_horizontal and b.height == config.width]
        assert len(horizontal) >= 2
        above = [b for b in horizontal if b.y0 >= rect.y1]
        below = [b for b in horizontal if b.y1 <= rect.y0]
        assert above and below
        assert above[0].y0 - rect.y1 == config.offset

    def test_short_edges_skipped(self):
        rect = Rect(0, 0, 80, 80)  # square: all edges below min_length+pullback
        bars = candidate_bars(rect, SrafConfig(min_length=100.0))
        assert bars == []

    def test_end_pullback_applied(self):
        rect = Rect(0, 0, 400, 80)
        config = SrafConfig(end_pullback=30.0)
        bars = candidate_bars(rect, config)
        for bar in bars:
            if bar.is_horizontal:
                assert bar.x0 == rect.x0 + 30.0
                assert bar.x1 == rect.x1 - 30.0


class TestInsertSrafs:
    def test_bars_stay_in_window(self):
        # Wire close to the window edge: outer bar must be dropped.
        layout = Layout(extent=512.0, rects=[Rect(96, 8, 416, 88)])
        bars = insert_srafs(layout)
        layout_with = Layout(extent=512.0, rects=layout.rects + bars)
        layout_with.validate()

    def test_clearance_against_other_patterns(self):
        # Two wires 220nm apart: bars between them would violate
        # clearance to the opposite wire at default offset+width.
        layout = Layout(extent=512.0, rects=[
            Rect(96, 100, 416, 180),
            Rect(96, 284, 416, 364),
        ])
        bars = insert_srafs(layout, SrafConfig(offset=80.0, width=24.0,
                                               clearance=80.0))
        for bar in bars:
            for rect in layout.rects:
                assert bar.gap(rect) >= 80.0 - 1e-9 or bar.gap(rect) == 0.0

    def test_bars_do_not_print(self, engine64):
        """The defining SRAF property: assist bars must stay below the
        resist threshold."""
        clip = _wire_clip()
        bars = insert_srafs(clip)
        assert bars, "expected bars around an isolated wire"
        assisted = binarize(rasterize(assisted_mask_layout(clip), 64))
        wafer = engine64.wafer(assisted)
        bar_region = binarize(rasterize(Layout(extent=512.0, rects=bars), 64))
        assert (wafer * bar_region).sum() == 0.0

    def test_bars_reduce_pv_band(self, engine64):
        """SRAFs flatten dose sensitivity of isolated features."""
        clip = _wire_clip()
        target = binarize(rasterize(clip, 64))
        assisted = binarize(rasterize(assisted_mask_layout(clip), 64))
        assisted_pvb = evaluate_mask(engine64, assisted, target).pvband_nm2
        plain_pvb = evaluate_mask(engine64, target, target).pvband_nm2
        assert assisted_pvb <= plain_pvb

    def test_bars_do_not_hurt_nominal_l2(self, engine64):
        clip = _wire_clip()
        target = binarize(rasterize(clip, 64))
        assisted = binarize(rasterize(assisted_mask_layout(clip), 64))
        plain_l2 = squared_l2(engine64.wafer(target), target)
        sraf_l2 = squared_l2(engine64.wafer(assisted), target)
        assert sraf_l2 <= plain_l2 + 8

    def test_assisted_layout_name(self):
        assisted = assisted_mask_layout(_wire_clip())
        assert assisted.name == "w+sraf"
        assert len(assisted) > 1


class TestBarToBarClearance:
    def test_facing_bars_respect_clearance(self):
        """Bars of facing wires collide in the channel between them:
        the first is accepted, the second dropped (bar-vs-bar rule, not
        bar-vs-pattern — both bars clear both patterns)."""
        layout = Layout(extent=512.0, rects=[
            Rect(100, 100, 400, 140),
            Rect(100, 340, 400, 380),
        ], name="facing")
        config = SrafConfig(width=24.0, offset=80.0, clearance=40.0)
        bars = insert_srafs(layout, config)
        channel = [b for b in bars if 140.0 <= b.y0 and b.y1 <= 340.0]
        assert len(channel) == 1
        # The survivor belongs to the first wire and clears everything.
        assert channel[0].y0 == 220.0
        for rect in layout.rects:
            assert channel[0].gap(rect) >= config.clearance - 1e-9
