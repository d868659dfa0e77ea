"""Evaluate the GAN-OPC flow on the ICCAD-13-substitute suite (Table 2).

Loads a trained generator checkpoint (or pre-trains a small one on the
fly), runs the Figure 6 flow on all ten substitute clips, compares
against from-scratch ILT, and writes the Figure 8-style gallery.

Run:  python examples/full_flow_iccad.py [--checkpoint path.npz]
                                         [--grid 64|128] [--clips N]
"""

import argparse
import os

import numpy as np

from repro import nn
from repro.bench import iccad13_suite, save_gallery
from repro.core import (GanOpcConfig, GanOpcFlow, ILTGuidedPretrainer,
                        MaskGenerator)
from repro.geometry import binarize, rasterize
from repro.ilt import ILTConfig, ILTOptimizer
from repro.layoutgen import SyntheticDataset
from repro.litho import LithoConfig, LithoEngine, build_kernels
from repro.metrics import comparison_table, evaluate_mask

OUT = os.path.join(os.path.dirname(__file__), "output", "iccad")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint", default=None,
                        help="generator .npz from train_gan_opc.py")
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument("--clips", type=int, default=10)
    args = parser.parse_args()

    litho = LithoConfig.small(args.grid)
    kernels = build_kernels(litho)
    engine = LithoEngine.for_kernels(kernels)
    config = GanOpcConfig.small(args.grid)

    generator = MaskGenerator(config.generator_channels,
                              rng=np.random.default_rng(0))
    if args.checkpoint:
        print(f"loading generator from {args.checkpoint}")
        nn.load_state(generator, args.checkpoint)
    else:
        print("no checkpoint given: pre-training a small generator "
              "(Algorithm 2) ...")
        dataset = SyntheticDataset(litho, size=16, seed=1, kernels=kernels)
        ILTGuidedPretrainer(generator, litho, config, kernels=kernels).train(
            dataset, iterations=80, rng=np.random.default_rng(2))

    suite = iccad13_suite(litho)[: args.clips]
    ilt = ILTOptimizer(litho, ILTConfig(max_iterations=150), kernels=kernels)
    flow = GanOpcFlow(generator, litho,
                      ILTConfig(max_iterations=100, patience=4),
                      kernels=kernels)

    columns = {"ILT": [], "GAN-OPC flow": []}
    gallery_rows = [[], [], [], [], []]
    for clip in suite:
        target = binarize(rasterize(clip.layout, args.grid))
        print(f"optimizing {clip.name} ...")

        ilt_result = ilt.optimize(target)
        columns["ILT"].append(evaluate_mask(
            engine, ilt_result.mask, target, layout=clip.layout,
            name=clip.name, runtime_seconds=ilt_result.runtime_seconds))

        flow_result = flow.optimize(target)
        columns["GAN-OPC flow"].append(evaluate_mask(
            engine, flow_result.mask, target, layout=clip.layout,
            name=clip.name, runtime_seconds=flow_result.runtime_seconds))

        gallery_rows[0].append(ilt_result.mask)
        gallery_rows[1].append(flow_result.mask)
        gallery_rows[2].append(engine.wafer(ilt_result.mask))
        gallery_rows[3].append(engine.wafer(flow_result.mask))
        gallery_rows[4].append(target)

    print("\n" + comparison_table(columns, baseline="ILT"))

    os.makedirs(OUT, exist_ok=True)
    gallery_path = os.path.join(OUT, "figure8_gallery.pgm")
    save_gallery(gallery_rows, gallery_path)
    print(f"\ngallery written to {gallery_path}")
    print("rows: ILT masks / flow masks / ILT wafers / flow wafers / targets")


if __name__ == "__main__":
    main()
