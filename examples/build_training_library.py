"""Build a training library offline: the paper's Section 4 data stage.

Demonstrates the production path for the expensive offline work:

1. synthesize N design-rule-clean clips (Table 1 rules),
2. optimize their reference masks with per-clip ILT, one clip per
   task on a two-process worker pool,
3. legalize the masks with mask-rule cleanup (drop unwritable debris),
4. export clips as .glp and masks/targets as .pgm, plus a manifest.

Run:  python examples/build_training_library.py [--count 8] [--grid 64]
"""

import argparse
import os

import numpy as np

from repro.bench import write_pgm
from repro.geometry import binarize, glp, rasterize
from repro.ilt import ILTConfig
from repro.layoutgen import LayoutSynthesizer, TopologyConfig
from repro.litho import LithoConfig, build_kernels
from repro.opc import MrcConfig, check_mask, cleanup_mask
from repro.parallel import parallel_ilt

OUT = os.path.join(os.path.dirname(__file__), "output", "library")
WORKERS = 2


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    litho = LithoConfig.small(args.grid)
    os.makedirs(OUT, exist_ok=True)
    # The kernel archive is kept with the library: a later run given
    # disk_cache=OUT loads it instead of repeating the SVD.
    build_kernels(litho, disk_cache=OUT)

    # 1. Synthesize.
    topo = TopologyConfig(extent=litho.extent_nm,
                          margin=min(120.0, litho.extent_nm / 8.0))
    clips = LayoutSynthesizer(topo).generate_batch(args.count,
                                                   seed=args.seed,
                                                   name_prefix="lib")
    targets = np.stack([binarize(rasterize(c, args.grid)) for c in clips])

    # 2. Per-clip ILT across worker processes.
    print(f"optimizing {args.count} reference masks "
          f"({WORKERS} workers) ...")
    result = parallel_ilt(targets, litho, ILTConfig(max_iterations=120),
                          workers=WORKERS)
    print(f"done in {result.runtime_seconds:.1f}s; "
          f"mean L2 {result.l2.mean():.1f} px")

    # 3. MRC cleanup + 4. export.
    mrc = MrcConfig(min_area=320.0)
    manifest = ["# clip  area_nm2  ilt_l2_px  mrc_total_before  mrc_after"]
    for i, clip in enumerate(clips):
        mask = result.masks[i]
        before = check_mask(mask, litho.pixel_nm, mrc).total
        mask = cleanup_mask(mask, litho.pixel_nm, mrc)
        after = check_mask(mask, litho.pixel_nm, mrc).total

        glp.save(clip, os.path.join(OUT, f"{clip.name}.glp"))
        write_pgm(targets[i], os.path.join(OUT, f"{clip.name}.target.pgm"))
        write_pgm(mask, os.path.join(OUT, f"{clip.name}.mask.pgm"))
        manifest.append(f"{clip.name}  {clip.pattern_area:.0f}  "
                        f"{result.l2[i]:.0f}  {before}  {after}")

    manifest_path = os.path.join(OUT, "manifest.txt")
    with open(manifest_path, "w") as handle:
        handle.write("\n".join(manifest) + "\n")
    print("\n".join(manifest))
    print(f"\nlibrary written to {OUT}/")


if __name__ == "__main__":
    main()
