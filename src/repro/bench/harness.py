"""Experiment harness regenerating the paper's tables and figures.

Each public function reproduces one experiment:

* :func:`train_generators` — trains GAN-OPC (no pre-training) and
  PGAN-OPC (ILT-guided pre-training) generators on a synthesized
  library, returning the **Figure 7** training curves;
* :func:`run_table2` — per-clip L2 / PVB / runtime of ILT [7] vs
  GAN-OPC vs PGAN-OPC over the ICCAD-13-substitute suite (**Table 2**);
* :func:`run_figure8` — mask / wafer-image gallery rows;
* :func:`run_figure9` — defect detail comparison (bridges / line-end
  pull-backs) between ILT and PGAN-OPC wafers.

The :class:`ExperimentConfig` scales everything (grid, dataset size,
iteration counts) so the same harness drives quick CI benchmarks and
long paper-scale runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import GanOpcConfig
from ..core.discriminator import PairDiscriminator
from ..core.flow import GanOpcFlow
from ..core.gan_opc import GanOpcTrainer, TrainingHistory
from ..core.generator import MaskGenerator
from ..core.pretrain import ILTGuidedPretrainer, PretrainHistory
from ..geometry.raster import rasterize
from ..ilt.optimizer import ILTConfig, ILTOptimizer
from ..layoutgen.dataset import SyntheticDataset
from ..litho.conditions import ConditionSet
from ..litho.config import LithoConfig
from ..litho.engine import LithoEngine
from ..litho.kernels import KernelSet, build_kernels
from ..metrics.defects import detect_bridges, detect_necks
from ..metrics.report import MaskEvaluation, comparison_table, evaluate_mask
from ..parallel.flow import _rebuild_generator, generator_payload
from ..parallel.pool import (TaskRunner, attach_array, worker_engine,
                             worker_state)
from .iccad13 import BenchmarkClip, iccad13_suite
from .visualize import overlay_comparison


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale knobs shared by all experiments.

    The defaults (128 px, ~6 CPU-minutes end to end) are the smallest
    scale at which Table 2's qualitative shape reproduces — at 128 px
    the substitute clips are complex enough that from-scratch ILT
    plateaus, so the generator warm start wins on both L2 and runtime
    as in the paper.  ``medium()``/``quick()`` scale down for faster
    runs; ``paper()`` records the full-scale settings for reference.
    """

    grid: int = 128
    dataset_size: int = 24
    pretrain_iterations: int = 120
    gan_iterations: int = 300
    ilt_iterations: int = 150
    refine_iterations: int = 100
    seed: int = 0

    @staticmethod
    def paper() -> "ExperimentConfig":
        """The paper's scale: 256 px, 4000 clips, ~10 h of training."""
        return ExperimentConfig(grid=256, dataset_size=4000,
                                pretrain_iterations=3000,
                                gan_iterations=12000,
                                ilt_iterations=400, refine_iterations=100)

    @staticmethod
    def medium() -> "ExperimentConfig":
        """~1-minute scale (64 px); runtime/PVB shape holds, L2 ratio
        hovers near 1.0 because scratch ILT is near-optimal on small
        clips."""
        return ExperimentConfig(grid=64, dataset_size=32,
                                pretrain_iterations=150,
                                gan_iterations=500,
                                ilt_iterations=200, refine_iterations=150)

    @staticmethod
    def quick() -> "ExperimentConfig":
        """Smoke-test scale for CI."""
        return ExperimentConfig(grid=32, dataset_size=6,
                                pretrain_iterations=10, gan_iterations=20,
                                ilt_iterations=60, refine_iterations=20)


@dataclass
class Pipeline:
    """Shared experiment state: litho model, dataset, one shared engine.

    The :class:`LithoEngine` is constructed once and every consumer —
    metrics, ILT baseline, flow refiners, pre-trainer — runs on it,
    so kernels are decomposed once and the cached adjoint spectra are
    shared across all clips of every experiment.
    """

    config: ExperimentConfig
    litho: LithoConfig
    kernels: KernelSet
    engine: LithoEngine
    dataset: SyntheticDataset

    @staticmethod
    def build(config: Optional[ExperimentConfig] = None,
              precision: Optional[str] = None) -> "Pipeline":
        """Build the shared state; ``precision`` selects the engine's
        compute dtype (``"f32"``/``"f64"``, default environment)."""
        config = config or ExperimentConfig()
        litho = LithoConfig.small(config.grid)
        kernels = build_kernels(litho)
        engine = LithoEngine.for_kernels(kernels, precision=precision)
        dataset = SyntheticDataset(litho, size=config.dataset_size,
                                   seed=config.seed, kernels=kernels)
        return Pipeline(config=config, litho=litho, kernels=kernels,
                        engine=engine, dataset=dataset)

    def gan_config(self) -> GanOpcConfig:
        return GanOpcConfig.small(self.config.grid)


@dataclass
class TrainedGenerators:
    """Both flow variants plus their Figure 7 curves."""

    gan: MaskGenerator
    pgan: MaskGenerator
    gan_history: TrainingHistory
    pgan_history: TrainingHistory
    pretrain_history: PretrainHistory


def train_generators(pipeline: Pipeline,
                     verbose: bool = False) -> TrainedGenerators:
    """Train GAN-OPC and PGAN-OPC generators (Figure 7 experiment).

    Both runs share the dataset, architecture and seeds; they differ
    only in whether Algorithm 2 pre-training precedes Algorithm 1 —
    isolating the paper's pre-training claim.
    """
    cfg = pipeline.config
    gan_cfg = pipeline.gan_config()

    # --- GAN-OPC: random init, adversarial training only.
    gen_gan = MaskGenerator(gan_cfg.generator_channels,
                            rng=np.random.default_rng(cfg.seed + 1))
    disc_gan = PairDiscriminator(cfg.grid, gan_cfg.discriminator_channels,
                                 rng=np.random.default_rng(cfg.seed + 2))
    trainer = GanOpcTrainer(gen_gan, disc_gan, gan_cfg)
    gan_history = trainer.train(pipeline.dataset, cfg.gan_iterations,
                                rng=np.random.default_rng(cfg.seed + 3),
                                verbose=verbose)

    # --- PGAN-OPC: identical init, Algorithm 2 first.
    gen_pgan = MaskGenerator(gan_cfg.generator_channels,
                             rng=np.random.default_rng(cfg.seed + 1))
    pretrainer = ILTGuidedPretrainer(gen_pgan, pipeline.litho, gan_cfg,
                                     engine=pipeline.engine)
    pretrain_history = pretrainer.train(
        pipeline.dataset, cfg.pretrain_iterations,
        rng=np.random.default_rng(cfg.seed + 4), verbose=verbose)
    disc_pgan = PairDiscriminator(cfg.grid, gan_cfg.discriminator_channels,
                                  rng=np.random.default_rng(cfg.seed + 2))
    trainer = GanOpcTrainer(gen_pgan, disc_pgan, gan_cfg)
    pgan_history = trainer.train(pipeline.dataset, cfg.gan_iterations,
                                 rng=np.random.default_rng(cfg.seed + 3),
                                 verbose=verbose)

    return TrainedGenerators(gan=gen_gan, pgan=gen_pgan,
                             gan_history=gan_history,
                             pgan_history=pgan_history,
                             pretrain_history=pretrain_history)


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------
#: Bump when the Table2Result persistence layout changes.
TABLE2_SCHEMA_VERSION = 1

#: Table 2's columns, in order.
TABLE2_METHODS = ("ILT", "GAN-OPC", "PGAN-OPC")


def _encode_mask(mask: np.ndarray) -> Dict:
    """Lossless strict-JSON encoding of a mask image.

    Binary masks (the Table 2 case) pack to 1 bit/pixel; anything else
    keeps raw float64 bytes.  Both are base64 so the JSON stays small
    and exact.
    """
    import base64
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
    values = np.unique(mask)
    if np.isin(values, (0.0, 1.0)).all():
        payload = np.packbits(mask.astype(np.uint8).ravel()).tobytes()
        encoding = "bits"
    else:
        payload = np.ascontiguousarray(mask, dtype=np.float64).tobytes()
        encoding = "f64"
    return {"encoding": encoding, "shape": [int(s) for s in mask.shape],
            "data": base64.b64encode(payload).decode("ascii")}


def _decode_mask(entry: Dict) -> np.ndarray:
    import base64
    payload = base64.b64decode(entry["data"])
    shape = tuple(entry["shape"])
    count = int(np.prod(shape))
    if entry["encoding"] == "bits":
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                             count=count)
        return bits.reshape(shape).astype(float)
    if entry["encoding"] == "f64":
        return np.frombuffer(payload, dtype=np.float64).reshape(shape).copy()
    raise ValueError(f"unknown mask encoding {entry['encoding']!r}")


@dataclass
class Table2Result:
    """Everything the Table 2 experiment produces."""

    columns: Dict[str, List[MaskEvaluation]]
    masks: Dict[str, List[np.ndarray]]
    clips: List[BenchmarkClip]
    table: str = ""
    #: per-method, per-clip runtime split: ``{"generation": s,
    #: "refinement": s}``.  ILT has no generator, so its generation
    #: stage is 0 and refinement carries the whole runtime — making the
    #: stage columns directly comparable across methods.
    stage_seconds: Dict[str, List[Dict[str, float]]] = field(
        default_factory=dict)
    #: litho-engine counter totals over the whole experiment —
    #: ``forward_calls/masks/seconds`` + ``gradient_*``.  Inline runs
    #: delta the process-wide ``LithoEngine.stats`` around the clip
    #: tasks (nominal engine and corner stacks alike); pooled
    #: runs sum the per-task deltas every worker ships back, so the
    #: counts reconcile 1:1 with an inline run of the same experiment
    #: (the parity test in ``tests/bench``).
    engine_stats: Dict[str, float] = field(default_factory=dict)
    #: pool accounting for pooled runs (None for inline ones).
    pool_stats: Optional[object] = None

    def engine_table(self) -> str:
        """Fleet-summed engine counter table (empty if not recorded)."""
        if not self.engine_stats:
            return ""
        from ..obs.aggregate import format_engine_table
        return format_engine_table(self.engine_stats,
                                   title="litho engine (all processes)")

    def averages(self, method: str) -> Tuple[float, float, float]:
        evals = self.columns[method]
        return (float(np.mean([e.l2_nm2 for e in evals])),
                float(np.mean([e.pvband_nm2 for e in evals])),
                float(np.mean([e.runtime_seconds for e in evals])))

    def stage_averages(self, method: str) -> Dict[str, float]:
        """Mean per-clip seconds of each flow stage for ``method``."""
        stages = self.stage_seconds[method]
        return {stage: float(np.mean([s[stage] for s in stages]))
                for stage in ("generation", "refinement")}

    def ratio(self, method: str, baseline: str = "ILT") -> Tuple[float, float, float]:
        m = self.averages(method)
        b = self.averages(baseline)
        return tuple(x / y for x, y in zip(m, b))

    @property
    def has_window_metrics(self) -> bool:
        """True when the run evaluated a process-window corner stack."""
        evals = next(iter(self.columns.values()))
        return bool(evals) and evals[0].window_pvband_nm2 is not None

    def window_averages(self, method: str) -> Optional[Dict[str, float]]:
        """Mean window PVB / worst-corner L2 (nm^2) for ``method``, or
        ``None`` when the run carried no corner stack."""
        if not self.has_window_metrics:
            return None
        evals = self.columns[method]
        return {
            "window_pvband_nm2": float(np.mean(
                [e.window_pvband_nm2 for e in evals])),
            "worst_corner_l2_nm2": float(np.mean(
                [e.worst_corner_l2_nm2 for e in evals])),
        }

    def window_table(self) -> str:
        """Table 2 companion: per-method window PVB / worst-corner
        L2 / worst-corner EPE averages over the corner stack."""
        if not self.has_window_metrics:
            return ""
        lines = [f"{'method':<12} {'winPVB(nm2)':>14} {'worstL2(nm2)':>14} "
                 f"{'worstEPE':>9}"]
        for method, evals in self.columns.items():
            avg = self.window_averages(method)
            epes = [e.worst_corner_epe for e in evals
                    if e.worst_corner_epe is not None]
            epe = f"{float(np.mean(epes)):9.1f}" if epes else " " * 9
            lines.append(f"{method:<12} {avg['window_pvband_nm2']:14.1f} "
                         f"{avg['worst_corner_l2_nm2']:14.1f} {epe}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """Lossless strict-JSON form of the whole result.

        Evaluations (including window metrics and EPE hotspots) go
        through :meth:`MaskEvaluation.to_dict`, masks are base64
        bit-packed, clips round-trip through the GLP text format.
        ``pool_stats`` is a live accounting object and deliberately not
        serialized — ``engine_stats`` already carries the fleet totals.
        """
        from ..geometry import glp
        return {
            "schema": TABLE2_SCHEMA_VERSION,
            "columns": {method: [ev.to_dict() for ev in evals]
                        for method, evals in self.columns.items()},
            "masks": {method: [_encode_mask(mask) for mask in masks]
                      for method, masks in self.masks.items()},
            "clips": [{"name": clip.name,
                       "target_area": float(clip.target_area),
                       "glp": glp.dumps(clip.layout)}
                      for clip in self.clips],
            "table": self.table,
            "stage_seconds": self.stage_seconds,
            "engine_stats": self.engine_stats,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Table2Result":
        """Inverse of :meth:`to_dict` (``pool_stats`` comes back None)."""
        from ..geometry import glp
        schema = data.get("schema")
        if schema != TABLE2_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported table2 schema {schema!r} "
                f"(expected {TABLE2_SCHEMA_VERSION})")
        return cls(
            columns={method: [MaskEvaluation.from_dict(entry)
                              for entry in entries]
                     for method, entries in data["columns"].items()},
            masks={method: [_decode_mask(entry) for entry in entries]
                   for method, entries in data["masks"].items()},
            clips=[BenchmarkClip(name=entry["name"],
                                 layout=glp.loads(entry["glp"]),
                                 target_area=entry["target_area"])
                   for entry in data["clips"]],
            table=data.get("table", ""),
            stage_seconds={method: list(stages) for method, stages
                           in data.get("stage_seconds", {}).items()},
            engine_stats=dict(data.get("engine_stats", {})),
        )


def _emit_clip_results(logger, result: "Table2Result") -> None:
    """Stream one ``clip_result`` record per (method, clip) evaluation."""
    if logger is None:
        return
    from ..runs.quality import clip_metrics
    for method, evaluations in result.columns.items():
        for index, evaluation in enumerate(evaluations):
            stages = None
            if result.stage_seconds.get(method):
                stages = result.stage_seconds[method][index]
            logger.clip_result(
                evaluation.name, method, clip_metrics(evaluation),
                runtime_seconds=evaluation.runtime_seconds,
                stage_seconds=stages,
                epe_hotspots=evaluation.epe_hotspots)


def _table2_clip_task(slot: int, masks_spec, grid: int,
                      litho_config: LithoConfig, ilt_iterations: int,
                      refine_iterations: int,
                      conditions: Optional[ConditionSet],
                      pw_objective: str, logger):
    """Evaluate ILT / GAN-OPC / PGAN-OPC on one benchmark clip.

    The clip and both generator payloads come from the run's broadcast
    state; each method's mask goes to row ``(method, slot)`` of the
    output array.  ``logger``, when given, receives every optimizer's
    ``quality_sample`` records.
    """
    state = worker_state()
    clip = state["clips"][slot]
    engine = worker_engine(litho_config)
    condition_engine = (LithoEngine.for_conditions(engine.kernels, conditions,
                                                   engine.precision)
                        if conditions is not None else None)
    target = (rasterize(clip.layout, grid) >= 0.5).astype(float)
    masks_out = attach_array(masks_spec)

    evaluations: Dict[str, MaskEvaluation] = {}
    stages: Dict[str, Dict[str, float]] = {}

    ilt = ILTOptimizer(litho_config,
                       ILTConfig(max_iterations=ilt_iterations,
                                 pw_objective=pw_objective),
                       engine=engine, conditions=conditions)
    ilt.logger = logger
    ilt.quality_context = {"clip": clip.name, "method": "ILT",
                           "stage": "refinement"}
    started = time.perf_counter()
    ilt_result = ilt.optimize(target)
    ilt_runtime = time.perf_counter() - started
    evaluations["ILT"] = evaluate_mask(
        engine, ilt_result.mask, target, layout=clip.layout,
        name=clip.name, runtime_seconds=ilt_runtime,
        condition_engine=condition_engine)
    stages["ILT"] = {"generation": 0.0, "refinement": ilt_runtime}
    masks_out[0, slot] = ilt_result.mask

    refine_cfg = ILTConfig(max_iterations=refine_iterations, patience=4,
                           pw_objective=pw_objective)
    for method_index, method in enumerate(TABLE2_METHODS[1:], start=1):
        flow = GanOpcFlow(_rebuild_generator(state[method]), litho_config,
                          refine_cfg, engine=engine, conditions=conditions)
        flow.refiner.logger = logger
        flow.refiner.quality_context = {"clip": clip.name, "method": method,
                                        "stage": "refinement"}
        flow_result = flow.optimize(target)
        evaluations[method] = evaluate_mask(
            engine, flow_result.mask, target, layout=clip.layout,
            name=clip.name, runtime_seconds=flow_result.runtime_seconds,
            condition_engine=condition_engine)
        stages[method] = {"generation": flow_result.generation_seconds,
                          "refinement": flow_result.refinement_seconds}
        masks_out[method_index, slot] = flow_result.mask

    return (slot, evaluations, stages)


def run_table2(pipeline: Pipeline, generators: TrainedGenerators,
               clips: Optional[List[BenchmarkClip]] = None,
               workers: int = 1,
               conditions: Optional[ConditionSet] = None,
               pw_objective: str = "nominal",
               logger=None) -> Table2Result:
    """ILT [7] vs GAN-OPC vs PGAN-OPC on the substitute suite.

    Each clip is one :func:`_table2_clip_task` (all three methods),
    run through a :class:`~repro.parallel.pool.TaskRunner`: inline, in
    order, with ``workers=1``, and one clip per worker process
    otherwise, with generator weights broadcast once per worker and
    result masks returned through shared memory.  Results are
    identical either way in float64.

    ``conditions`` adds a process-window corner stack: every mask is
    additionally evaluated over the corners (window PVB, worst-corner
    L2/EPE columns), and when ``pw_objective`` is not ``"nominal"`` the
    optimizers also *descend* that corner aggregation instead of the
    nominal-only objective.

    ``logger`` (a :class:`~repro.runtime.telemetry.RunLogger`) streams
    quality telemetry into the run ledger: one ``clip_result`` record
    per (method, clip) at the end and, on inline runs only, the
    per-evaluation-point ``quality_sample`` records of every
    optimization (a pool's iteration samples stay in its workers).
    Pooled runs also log the pool's records
    (:meth:`~repro.parallel.pool.PoolStats.log_to`):
    straggler ``anomaly`` records and one ``worker_span_summary`` per
    worker.
    """
    cfg = pipeline.config
    clips = clips or iccad13_suite(pipeline.litho)
    state = {"clips": clips,
             "GAN-OPC": generator_payload(generators.gan),
             "PGAN-OPC": generator_payload(generators.pgan)}

    stats_before = LithoEngine.stats.snapshot()
    with TaskRunner(workers, None, pipeline.litho,
                    pipeline.engine.precision, state) as runner:
        masks_handle = runner.share(np.zeros((len(TABLE2_METHODS),
                                              len(clips), cfg.grid,
                                              cfg.grid)))
        task_logger = logger if runner.pool is None else None
        reports = runner.map(
            _table2_clip_task,
            [(slot, masks_handle, cfg.grid, pipeline.litho,
              cfg.ilt_iterations, cfg.refine_iterations, conditions,
              pw_objective, task_logger)
             for slot in range(len(clips))],
            label="parallel.table2")
        all_masks = runner.collect(masks_handle)
    pool_stats = runner.pool_stats

    columns = {m: [None] * len(clips) for m in TABLE2_METHODS}
    masks = {m: [None] * len(clips) for m in TABLE2_METHODS}
    stage_seconds = {m: [None] * len(clips) for m in TABLE2_METHODS}
    for slot, evaluations, stages in reports:
        for method_index, method in enumerate(TABLE2_METHODS):
            columns[method][slot] = evaluations[method]
            masks[method][slot] = all_masks[method_index, slot]
            stage_seconds[method][slot] = stages[method]

    result = Table2Result(
        columns=columns, masks=masks, clips=clips,
        stage_seconds=stage_seconds,
        engine_stats=(dict(pool_stats.fleet.engine_totals)
                      if pool_stats is not None
                      else LithoEngine.stats.delta(stats_before)),
        pool_stats=pool_stats)
    result.table = comparison_table(columns, baseline="ILT")
    _emit_clip_results(logger, result)
    if logger is not None and pool_stats is not None:
        pool_stats.log_to(logger)
    return result


# ----------------------------------------------------------------------
# Figures 8 and 9
# ----------------------------------------------------------------------
def run_figure8(pipeline: Pipeline, table2: Table2Result
                ) -> List[List[np.ndarray]]:
    """Gallery rows (Figure 8): ILT masks, PGAN masks, their wafer
    images, and targets — one column per clip."""
    engine = pipeline.engine
    targets = [(rasterize(c.layout, pipeline.config.grid) >= 0.5).astype(float)
               for c in table2.clips]
    rows = [
        table2.masks["ILT"],
        table2.masks["PGAN-OPC"],
        [engine.wafer(m) for m in table2.masks["ILT"]],
        [engine.wafer(m) for m in table2.masks["PGAN-OPC"]],
        targets,
    ]
    return rows


@dataclass
class DefectComparison:
    """Figure 9: defect census of ILT vs PGAN-OPC wafer images."""

    clip: str
    ilt_bridges: int
    ilt_necks: int
    pgan_bridges: int
    pgan_necks: int
    ilt_overlay: np.ndarray = field(repr=False, default=None)
    pgan_overlay: np.ndarray = field(repr=False, default=None)


def run_figure9(pipeline: Pipeline, table2: Table2Result
                ) -> List[DefectComparison]:
    """Count bridge and neck (line-end pull-back class) defects on the
    final wafers of both methods for every clip."""
    engine = pipeline.engine
    cd_px = max(int(round(80.0 / pipeline.litho.pixel_nm * 0.5)), 1)
    comparisons = []
    for i, clip in enumerate(table2.clips):
        target = (rasterize(clip.layout, pipeline.config.grid) >= 0.5).astype(float)
        ilt_wafer = engine.wafer(table2.masks["ILT"][i])
        pgan_wafer = engine.wafer(table2.masks["PGAN-OPC"][i])
        comparisons.append(DefectComparison(
            clip=clip.name,
            ilt_bridges=len(detect_bridges(ilt_wafer, target)),
            ilt_necks=len(detect_necks(ilt_wafer, target, cd_px)),
            pgan_bridges=len(detect_bridges(pgan_wafer, target)),
            pgan_necks=len(detect_necks(pgan_wafer, target, cd_px)),
            ilt_overlay=overlay_comparison(target, ilt_wafer),
            pgan_overlay=overlay_comparison(target, pgan_wafer),
        ))
    return comparisons
