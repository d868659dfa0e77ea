"""Lithography simulation playground.

Explores the imaging substrate directly: kernel spectra, aerial-image
profiles across a wire, dose sensitivity (the PV band mechanism), and
the effect of sub-resolution assist features (SRAFs) — the classic
trick the paper's Figure 1 alludes to with "inserting assist features".

Run:  python examples/litho_playground.py
Outputs: examples/output/litho/*.pgm
"""

import os

import numpy as np

from repro.bench import write_pgm
from repro.litho import ConditionSet, LithoConfig, LithoEngine, build_kernels
from repro.metrics import mask_window_pv_band

GRID = 128
OUT = os.path.join(os.path.dirname(__file__), "output", "litho")


def main():
    litho = LithoConfig.small(GRID)
    kernels = build_kernels(litho)
    engine = LithoEngine.for_kernels(kernels)
    dose_band = LithoEngine.for_conditions(
        kernels, ConditionSet.dose_corners(litho.dose_variation))
    os.makedirs(OUT, exist_ok=True)

    # --- kernel gallery ------------------------------------------------
    spatial = kernels.spatial_kernels()
    print(f"{kernels.num_kernels} coherent kernels; weights "
          f"(top 5): {np.round(kernels.weights[:5], 4)}")
    for k in range(4):
        magnitude = np.abs(spatial[k])
        write_pgm(magnitude / magnitude.max(),
                  os.path.join(OUT, f"kernel_{k}.pgm"))

    # --- an isolated wire: intensity profile ---------------------------
    mask = np.zeros((GRID, GRID))
    mask[59:69, 24:104] = 1.0  # 80nm wire
    intensity = engine.aerial(mask)
    profile = intensity[:, GRID // 2]
    peak = profile.max()
    print(f"\nisolated 80nm wire: peak intensity {peak:.3f} "
          f"(threshold {litho.threshold})")
    rows = np.nonzero(profile >= litho.threshold)[0]
    printed_cd = (rows[-1] - rows[0] + 1) * litho.pixel_nm if len(rows) else 0
    print(f"printed CD across the wire: {printed_cd:.0f} nm (drawn 80 nm)")

    # --- dose sensitivity = the PV band mechanism ----------------------
    for dose in (0.95, 1.0, 1.05):
        area = engine.wafer(mask, dose=dose).sum()
        print(f"dose {dose:.2f}: printed area {area:.0f} px")
    print(f"PV band (+-2% dose): "
          f"{mask_window_pv_band(dose_band, mask):.0f} nm^2")

    # --- SRAF demonstration --------------------------------------------
    # Sub-resolution assist features: bars too small to print that
    # still brighten the main feature's image and flatten its dose
    # sensitivity.
    sraf = mask.copy()
    sraf[45:49, 24:104] = 1.0   # 32nm bars, below resolution
    sraf[79:83, 24:104] = 1.0
    plain_pvb = mask_window_pv_band(dose_band, mask)
    sraf_pvb = mask_window_pv_band(dose_band, sraf)
    sraf_intensity = engine.aerial(sraf)
    sraf_wafer = engine.wafer(sraf)
    bars_printed = sraf_wafer[45:49, :].sum() + sraf_wafer[79:83, :].sum()
    print(f"\nwith SRAFs: peak intensity {sraf_intensity.max():.3f} "
          f"(plain {intensity.max():.3f}), "
          f"PV band {sraf_pvb:.0f} nm^2 (plain {plain_pvb:.0f} nm^2), "
          f"assist bars printed {bars_printed:.0f} px (want 0)")

    write_pgm(intensity / intensity.max(), os.path.join(OUT, "aerial.pgm"))
    write_pgm(engine.wafer(mask), os.path.join(OUT, "wafer.pgm"))
    write_pgm(sraf, os.path.join(OUT, "sraf_mask.pgm"))
    write_pgm(sraf_wafer, os.path.join(OUT, "sraf_wafer.pgm"))
    print(f"\nimages written to {OUT}/")


if __name__ == "__main__":
    main()
