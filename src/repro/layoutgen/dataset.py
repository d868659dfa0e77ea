"""Training datasets: target clips paired with reference masks.

The GAN is trained on pairs ``(Z_t, M*)`` — a synthesized target layout
and its ground-truth mask.  As in the paper, reference masks come from
the ILT engine (the reference-mask column of Algorithm 1 corresponds to
masks "generated by an ILT engine"); building them is the expensive,
offline part of the flow.

:class:`SyntheticDataset` owns clip synthesis, rasterization to the
network resolution, lazy reference-mask generation with caching, and
mini-batch sampling in the NCHW layout ``repro.nn`` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..geometry.layout import Layout
from ..geometry.raster import rasterize
from ..ilt.optimizer import ILTConfig, ILTOptimizer
from ..litho.config import LithoConfig
from ..litho.kernels import KernelSet, build_kernels
from .topology import LayoutSynthesizer, TopologyConfig


@dataclass
class TargetMaskPair:
    """One training instance: rasterized target and its reference mask."""

    layout: Layout
    target: np.ndarray
    mask: np.ndarray


class SyntheticDataset:
    """Synthesized training library of target/reference-mask pairs.

    Parameters
    ----------
    litho_config:
        Determines the raster grid and the litho model used to build
        reference masks.
    topology:
        Clip synthesis parameters; its ``extent`` is overridden to the
        litho window (``grid * pixel_nm``) so rasters align.
    size:
        Number of instances (the paper uses 4000; tests use tens).
    seed:
        Root seed; instance ``i`` is reproducible independently.
    ilt_config:
        ILT settings for reference-mask generation.

    Reference masks are built lazily on first access and cached, since
    each costs an ILT run.  ``targets`` alone (for pre-training,
    Algorithm 2, which needs no ground truth) are cheap.
    """

    def __init__(self, litho_config: Optional[LithoConfig] = None,
                 topology: Optional[TopologyConfig] = None,
                 size: int = 128, seed: int = 0,
                 ilt_config: Optional[ILTConfig] = None,
                 kernels: Optional[KernelSet] = None):
        if size < 1:
            raise ValueError(f"dataset size must be >= 1, got {size}")
        self.litho_config = litho_config or LithoConfig.paper()
        base_topology = topology or TopologyConfig()
        # Clip window must match the simulated window; shrink the margin
        # when the window is small so synthesis stays feasible.
        extent = self.litho_config.extent_nm
        if base_topology.extent != extent:
            from dataclasses import replace
            margin = min(base_topology.margin, extent / 8.0)
            base_topology = replace(base_topology, extent=extent, margin=margin)
        self.topology = base_topology
        self.size = size
        self.seed = seed
        self.kernels = kernels or build_kernels(self.litho_config)
        self.ilt = ILTOptimizer(self.litho_config,
                                ilt_config or ILTConfig(max_iterations=60,
                                                        eval_interval=5),
                                kernels=self.kernels)
        self._synthesizer = LayoutSynthesizer(self.topology)
        self._layouts: List[Optional[Layout]] = [None] * size
        self._targets: List[Optional[np.ndarray]] = [None] * size
        self._masks: List[Optional[np.ndarray]] = [None] * size
        self._children = np.random.SeedSequence(seed).spawn(size)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def layout(self, index: int) -> Layout:
        """Clip geometry for instance ``index`` (synthesized on demand)."""
        self._check_index(index)
        if self._layouts[index] is None:
            rng = np.random.default_rng(self._children[index])
            self._layouts[index] = self._synthesizer.generate(
                rng, name=f"train-{index:04d}")
        return self._layouts[index]

    def target(self, index: int) -> np.ndarray:
        """Rasterized target image ``Z_t`` on the litho grid."""
        self._check_index(index)
        if self._targets[index] is None:
            raster = rasterize(self.layout(index), self.litho_config.grid)
            self._targets[index] = (raster >= 0.5).astype(float)
        return self._targets[index]

    def reference_mask(self, index: int) -> np.ndarray:
        """Ground-truth mask ``M*`` from the ILT engine (cached)."""
        self._check_index(index)
        if self._masks[index] is None:
            result = self.ilt.optimize(self.target(index))
            self._masks[index] = result.mask
        return self._masks[index]

    def pair(self, index: int) -> TargetMaskPair:
        return TargetMaskPair(layout=self.layout(index),
                              target=self.target(index),
                              mask=self.reference_mask(index))

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range [0, {self.size})")

    # ------------------------------------------------------------------
    def targets_batch(self, indices) -> np.ndarray:
        """Stack targets as an NCHW batch (pre-training input)."""
        return np.stack([self.target(i) for i in indices])[:, None, :, :]

    def pairs_batch(self, indices) -> Tuple[np.ndarray, np.ndarray]:
        """Stack (targets, reference masks) as NCHW batches."""
        targets = self.targets_batch(indices)
        masks = np.stack([self.reference_mask(i) for i in indices])[:, None, :, :]
        return targets, masks

    def minibatches(self, batch_size: int, rng: np.random.Generator,
                    epochs: int = 1, with_masks: bool = True
                    ) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """Yield shuffled mini-batches; drops the final short batch.

        Algorithm 1 samples mini-batches of targets with ground-truth
        masks; Algorithm 2 (pre-training) only needs targets, selected
        by ``with_masks=False``.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        for _ in range(epochs):
            order = rng.permutation(self.size)
            for start in range(0, self.size - batch_size + 1, batch_size):
                chunk = order[start:start + batch_size]
                if with_masks:
                    yield self.pairs_batch(chunk)
                else:
                    yield self.targets_batch(chunk), None

    def precompute(self, indices=None, progress: bool = False,
                   workers: int = 1) -> None:
        """Eagerly build reference masks (the offline dataset stage).

        The targets of every uncached instance go through one
        :func:`~repro.parallel.ilt.parallel_ilt` run with this
        dataset's ILT settings: inline with ``workers=1``, across
        worker processes otherwise.  ILT is deterministic, so the masks
        are bit-exact equal to lazily built ones whatever the worker
        count.  Only the masks are kept.
        """
        # Imported here: repro.parallel imports repro.core, which
        # imports this module.
        from ..parallel.ilt import parallel_ilt

        indices = list(range(self.size) if indices is None else indices)
        for index in indices:
            self._check_index(index)
        pending = [i for i in dict.fromkeys(indices) if self._masks[i] is None]
        if not pending:
            return

        def report(done, total, pid, seconds):
            if done % 10 == 0:
                print(f"built {done} reference masks")

        run = parallel_ilt(np.stack([self.target(i) for i in pending]),
                           self.litho_config, self.ilt.config,
                           workers=workers,
                           progress=report if progress else None)
        for index, result in zip(pending, run.results):
            self._masks[index] = result.mask.copy()
