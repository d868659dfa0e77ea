"""Ablation: the 8x8 average-pooling resolution bridge (Section 4).

The paper cannot train on 2048x2048 images, so layouts are average-
pooled 8x8 before the network and linearly interpolated back.  This
benchmark quantifies what the bridge costs: for pooling factors 1-8 it
round-trips rasterized clips through pool + upsample + re-binarize and
reports the pixel disagreement and the induced wafer-image error.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import (average_pool, bilinear_upsample, binarize,
                            rasterize)
from repro.layoutgen import LayoutSynthesizer, TopologyConfig
from repro.litho import LithoConfig, LithoEngine, build_kernels
from repro.metrics import squared_l2

FINE_GRID = 128
FACTORS = (1, 2, 4, 8)


def test_pooling_bridge_fidelity(benchmark):
    litho = LithoConfig.small(FINE_GRID)
    engine = LithoEngine.for_kernels(build_kernels(litho))
    synthesizer = LayoutSynthesizer(TopologyConfig(extent=litho.extent_nm,
                                                   margin=120.0))
    clips = [synthesizer.generate(np.random.default_rng(s)) for s in range(4)]
    rasters = [binarize(rasterize(clip, FINE_GRID)) for clip in clips]

    def run():
        rows = []
        for factor in FACTORS:
            pixel_err = 0.0
            wafer_err = 0.0
            for raster in rasters:
                bridged = binarize(
                    bilinear_upsample(average_pool(raster, factor), factor))
                pixel_err += float(np.abs(bridged - raster).sum())
                wafer_err += squared_l2(engine.wafer(bridged),
                                        engine.wafer(raster))
            rows.append((factor, pixel_err / len(rasters),
                         wafer_err / len(rasters)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n=== Ablation: resolution bridge (Section 4) ===")
    print(f"{'factor':>6s} {'pixel err':>10s} {'wafer L2 err':>13s}")
    for factor, pixel_err, wafer_err in rows:
        print(f"{factor:6d} {pixel_err:10.1f} {wafer_err:13.1f}")
        benchmark.extra_info[f"wafer_err_x{factor}"] = round(wafer_err, 1)

    # Factor 1 must be lossless; loss must grow monotonically with the
    # factor; and the paper's operating point must stay mild relative
    # to pattern area.
    assert rows[0][1] == 0.0 and rows[0][2] == 0.0
    pixel_errors = [r[1] for r in rows]
    assert all(a <= b + 1e-9 for a, b in zip(pixel_errors, pixel_errors[1:]))
    mean_area = np.mean([r.sum() for r in rasters])
    assert rows[-1][2] < 0.5 * mean_area
