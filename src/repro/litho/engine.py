"""Unified Hopkins forward/adjoint engine (Eqs. 1-3, 11-14).

Every workload in the repo — forward simulation, the ILT baseline,
Algorithm 2 pre-training, the Fig. 6 refinement stage, process-window
corner stacks and the Table 2 benchmarks — bottoms out in the same two
pipelines:

* **forward** (Eq. 2): ``I = sum_k w_k |IFFT(FFT(M) * H_k)|^2`` followed
  by a hard or sigmoid resist (Eqs. 3, 12);
* **adjoint** (Eq. 14): the chain-rule gradient of the relaxed litho
  error ``E = ||Z_t - Z||^2`` back through the resist and the coherent
  systems onto the mask.

:class:`LithoEngine` is the one implementation of both.  It accepts
single ``(H, W)`` masks and batched ``(N, H, W)`` stacks, and one core
serves the nominal condition and process-window corner stacks alike:
the nominal path is the one-group, dose-scaled case of a
:class:`_KernelStack`.

Where the work happens (``G`` = mask grid, ``R`` = signed pupil
frequencies per axis, ``K`` = kernels, ``g`` = reduced raster):

* **mask spectrum** — the DFT of the mask evaluated only on the
  ``R x R`` kernel passband, two thin complex matmuls
  (``O(R G^2)`` per mask);
* **per kernel, on the g x g raster** — each field ``f_k`` carries only
  the passband P, so ``|f_k|^2`` and the adjoint products
  ``conj(f_k) dE/dI`` only matter on the difference band P-P of
  ``2R-1`` frequencies.  A raster of ``g = 2R-1`` points per axis
  samples that band without aliasing, so fields, intensities and the
  adjoint spectra are computed there: ``O(g R (R + g))`` per kernel
  and direction, against ``O(G R (R + G))`` on the full raster
  (49 vs 128 points per axis at 128 px / 8 nm, ~5x fewer flops);
* **two exact resamples** — after the kernel sum the intensity moves
  up with the real band-limited interpolator ``I = U I_g U^T``
  (``U`` is ``G x g``), and before the adjoint loop ``dE/dI`` moves
  down with ``U^T (dE/dI) U``; both ``O(g G^2)`` per mask and group;
* **expand** — the accumulated adjoint spectrum is inverse-transformed
  once onto the full raster (``O(R G^2)``).

The kernel axis runs batched: ``(K, N, g, g)`` stacks through one
matmul per DFT factor.  When ``2R-1 >= G`` (pixels coarser than about
20 nm) the reduced raster is the full one, ``g = G``, and both
resamples are skipped.  ``g`` is derived from the kernels; it is not
an option.  Results match the plain ``fft2`` reference to ~1e-14
(DESIGN.md §16).

Two single-process fast paths are built in:

* **precision mode** — ``precision="f32"`` runs the whole pipeline in
  ``float32``/``complex64`` (kernels, DFT factors, fields, resist);
  ``"f64"`` (the default, also selectable via ``REPRO_PRECISION``)
  remains the parity reference.  Documented f32 tolerance: relaxed
  litho error within 1e-3 of the f64 value on normalized masks (see
  DESIGN.md §10).
* **workspace arena** — per-engine scratch buffers
  (:class:`repro.workspace.Workspace`) are reused across iterations
  for every intermediate that does not escape the call.  Arrays
  returned to callers are always freshly allocated.

:meth:`LithoEngine.for_kernels` memoizes one engine per
(:class:`~repro.litho.kernels.KernelSet`, precision) — the
facades in :mod:`repro.litho.aerial`, :mod:`repro.litho.simulator`
and :mod:`repro.ilt` all share it automatically.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.obs import trace
from repro.obs.registry import MetricsRegistry
from repro.workspace import Workspace

from .conditions import ConditionSet
from .config import LithoConfig
from .kernels import KernelSet, build_kernels
from .resist import binarize_mask, hard_resist, sigmoid_mask, _stable_sigmoid

ArrayOrScalar = Union[float, np.ndarray]

#: precision name -> (real dtype, complex dtype)
PRECISION_DTYPES: Dict[str, Tuple[np.dtype, np.dtype]] = {
    "f64": (np.dtype(np.float64), np.dtype(np.complex128)),
    "f32": (np.dtype(np.float32), np.dtype(np.complex64)),
}

_PRECISION_ALIASES = {
    "f64": "f64", "float64": "f64", "double": "f64",
    "f32": "f32", "float32": "f32", "single": "f32",
}


def resolve_precision(precision: Optional[str]) -> str:
    """Normalize a precision name; ``None`` consults ``REPRO_PRECISION``
    and falls back to ``"f64"``."""
    if precision is None:
        precision = os.environ.get("REPRO_PRECISION") or "f64"
    key = str(precision).strip().lower()
    if key not in _PRECISION_ALIASES:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of "
            f"{sorted(set(_PRECISION_ALIASES))}")
    return _PRECISION_ALIASES[key]


class EngineStats:
    """Cumulative call counters and wall-clock for one engine instance.

    A facade over the engine's :class:`~repro.obs.MetricsRegistry` —
    the counters live in the registry (under ``litho.*`` names) and
    this class preserves the historic attribute / ``snapshot()`` /
    ``delta()`` API on top of them.

    ``forward_*`` counts executions of the *public* aerial-intensity
    pipeline only; the forward pass nested inside each adjoint
    evaluation is attributed to ``gradient_*`` instead, so
    ``forward_seconds`` and ``gradient_seconds`` partition engine
    compute time with no double-counting, and the call counters
    reconcile 1:1 with the ``litho.forward`` / ``litho.adjoint`` span
    counts of an active tracer.  ``*_masks`` accumulate batch sizes,
    so throughput is ``masks / seconds``.  The run telemetry records
    per-iteration deltas of :meth:`snapshot`.
    """

    _INT_FIELDS = ("forward_calls", "forward_masks",
                   "gradient_calls", "gradient_masks")
    _FLOAT_FIELDS = ("forward_seconds", "gradient_seconds")
    _FIELDS = _INT_FIELDS + _FLOAT_FIELDS

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {name: self.registry.counter(f"litho.{name}")
                          for name in self._FIELDS}

    def __getattr__(self, name: str):
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            value = counters[name].value
            return int(value) if name in self._INT_FIELDS else value
        raise AttributeError(name)

    def record_forward(self, masks: int, seconds: float) -> None:
        self._counters["forward_calls"].inc()
        self._counters["forward_masks"].inc(masks)
        self._counters["forward_seconds"].inc(seconds)

    def record_gradient(self, masks: int, seconds: float) -> None:
        self._counters["gradient_calls"].inc()
        self._counters["gradient_masks"].inc(masks)
        self._counters["gradient_seconds"].inc(seconds)

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict copy (for telemetry deltas and assertions); call
        and mask counts come back as ints.  Reads the registry counters
        directly rather than through ``__getattr__``."""
        snap = {name: counter.value
                for name, counter in self._counters.items()}
        for name in self._INT_FIELDS:
            snap[name] = int(snap[name])
        return snap

    def since(self, baseline: Dict[str, float]) -> Dict[str, float]:
        """Raw float growth of every counter since ``baseline`` (an
        earlier :meth:`snapshot`) in one pass — cheap enough for the
        worker pool to take twice per task."""
        return {name: counter.value - baseline[name]
                for name, counter in self._counters.items()}

    def delta(self, previous: Dict[str, float]) -> Dict[str, float]:
        """Per-field difference against an earlier :meth:`snapshot`."""
        now = self.snapshot()
        return {key: now[key] - previous.get(key, 0) for key in now}

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()


def real_spectrum(masks: np.ndarray) -> np.ndarray:
    """Full complex FFT of a real mask (stack) via ``rfft2``.

    Computes the half-spectrum with a real-input transform and expands
    it to the full FFT grid using Hermitian symmetry
    ``F[-u, -v] = conj(F[u, v])`` — the full grid is needed because the
    coherent kernels ``H_k`` are not Hermitian, so the field spectra
    ``FFT(M) * H_k`` cannot stay in half-spectrum form.
    """
    masks = np.asarray(masks, dtype=float)
    grid = masks.shape[-1]
    half = np.fft.rfft2(masks, axes=(-2, -1))
    n_half = half.shape[-1]
    full = np.empty(masks.shape[:-2] + (grid, grid), dtype=complex)
    full[..., :n_half] = half
    rows = (-np.arange(grid)) % grid
    cols = grid - np.arange(n_half, grid)
    full[..., n_half:] = np.conj(half[..., rows, :][..., cols])
    return full


def _dft_factor(a: np.ndarray, b: np.ndarray, sign: int, scale: float,
                grid: int, cdtype: np.dtype) -> np.ndarray:
    """DFT factor matrix ``exp(sign * 2j*pi/grid * a b^T) * scale``."""
    omega = 2j * np.pi / grid
    return (np.exp(sign * omega * np.outer(a, b)) * scale).astype(cdtype)


def _signed(bins: np.ndarray, grid: int) -> np.ndarray:
    """Signed frequency of each FFT bin index (``k`` or ``k - grid``)."""
    return (bins + grid // 2) % grid - grid // 2


def _band_interpolator(grid: int, raster: int) -> np.ndarray:
    """Real ``(grid, raster)`` band-limited interpolator.

    ``U[x, j] = 1/g sum_{|d| <= (g-1)/2} exp(2j*pi d (x/G - j/g))``
    maps samples at ``j G/g`` of a trigonometric polynomial with
    frequencies ``|d| <= (g-1)/2`` exactly onto the integer raster.
    The band is symmetric, so the sum is a real cosine series; phases
    are reduced modulo ``G g`` in integers before the cosine.
    """
    x = np.arange(grid)[:, None, None]
    j = np.arange(raster)[None, :, None]
    d = np.arange(1, (raster - 1) // 2 + 1)[None, None, :]
    period = grid * raster
    phase = (d * (x * raster - j * grid)) % period
    return (1.0 + 2.0 * np.cos(2.0 * np.pi * phase / period).sum(-1)) / raster


class _Corners(NamedTuple):
    """Process corners evaluated on one :class:`_KernelStack`: the
    defocus group each corner reads, its dose, and its weight in the
    ``weighted`` objective."""

    group_of: Tuple[int, ...]
    doses: Tuple[float, ...]
    lam: np.ndarray


class _KernelStack:
    """Precomputed kernel tensors and DFT factors for one or more
    defocus groups.

    Kernel sets are concatenated along the kernel axis;
    ``group_slices[f]`` are the kernels of defocus group ``f``, and
    every corner of that group shares its fields — dose is applied as
    an intensity scale afterwards.  The nominal engine is the
    one-group stack of its own kernels.  Transforms are restricted to
    the union passband of all groups (defocus is a pupil phase, so in
    practice the groups share one support).

    The forward kernels carry ``sqrt(w_k)`` and the adjoint kernels
    ``2 sqrt(w_k)`` (the Eq. 14 factor ``2 w_k`` in total), so the
    intensity is a plain sum of ``|field|^2``.
    """

    __slots__ = ("tag", "num_kernels", "num_groups", "group_slices", "rows",
                 "cols", "raster", "freq_cc", "adj_cc", "spec_row",
                 "spec_col", "ifft_row", "ifft_col", "fft_row", "fft_col",
                 "grad_row", "grad_col", "up", "down", "chunk")

    def __init__(self, tag: str, kernel_sets: List[KernelSet],
                 rdtype: np.dtype, cdtype: np.dtype):
        self.tag = tag
        grid = kernel_sets[0].grid
        freq = np.concatenate([ks.freq_kernels for ks in kernel_sets])
        adjoint = np.concatenate([ks.flipped() for ks in kernel_sets])
        root_weights = np.sqrt(np.concatenate([ks.weights
                                               for ks in kernel_sets]))
        self.num_kernels = len(root_weights)
        starts = np.cumsum([0] + [len(ks.weights) for ks in kernel_sets])
        self.num_groups = len(kernel_sets)
        self.group_slices = tuple(slice(int(starts[f]), int(starts[f + 1]))
                                  for f in range(self.num_groups))

        # Passband support: the frequency rows/columns where any kernel
        # is nonzero.  Everything outside is identically zero (pupil
        # cutoff), so transforms restricted to this block are exact.
        rows = np.where(np.any(freq != 0, axis=(0, 2)))[0]
        cols = np.where(np.any(freq != 0, axis=(0, 1)))[0]
        arows = np.where(np.any(adjoint != 0, axis=(0, 2)))[0]
        acols = np.where(np.any(adjoint != 0, axis=(0, 1)))[0]
        self.rows, self.cols = rows, cols
        self.freq_cc = np.ascontiguousarray(
            root_weights[:, None, None] * freq[:, rows[:, None], cols[None, :]],
            dtype=cdtype)
        self.adj_cc = np.ascontiguousarray(
            2.0 * root_weights[:, None, None]
            * adjoint[:, arows[:, None], acols[None, :]], dtype=cdtype)

        # Reduced raster: fields carry the signed passband frequencies
        # s, so |f_k|^2 and conj(f_k) dE/dI live on the difference band
        # s - s' (the flipped kernels' support is -s, so the adjoint
        # sees the same band).  2 * span + 1 points per axis sample it
        # without aliasing.
        srows, scols = _signed(rows, grid), _signed(cols, grid)
        span = max(np.ptp(srows), np.ptp(scols))
        self.raster = raster = min(grid, 2 * int(span) + 1)

        x = np.arange(grid)
        j = np.arange(raster)
        # ``spec_row @ M @ spec_col`` is the mask DFT on the passband;
        # ``ifft_row @ P @ ifft_col`` samples the field of a passband
        # spectrum P at the raster points j G/g (scale 1/G per axis, as
        # on the full raster); ``fft_*`` is the forward DFT of a raster
        # image onto the adjoint passband, and ``grad_*`` inverts from
        # that passband onto the full grid.
        self.spec_row = _dft_factor(rows, x, -1, 1.0, grid, cdtype)
        self.spec_col = _dft_factor(x, cols, -1, 1.0, grid, cdtype)
        self.ifft_row = _dft_factor(j, srows, +1, 1.0 / grid, raster, cdtype)
        self.ifft_col = _dft_factor(scols, j, +1, 1.0 / grid, raster, cdtype)
        self.fft_row = _dft_factor(_signed(arows, grid), j, -1, 1.0, raster,
                                   cdtype)
        self.fft_col = _dft_factor(j, _signed(acols, grid), -1, 1.0, raster,
                                   cdtype)
        self.grad_row = _dft_factor(x, arows, +1, 1.0 / grid, grid, cdtype)
        self.grad_col = _dft_factor(acols, x, +1, 1.0 / grid, grid, cdtype)
        if raster < grid:
            up = _band_interpolator(grid, raster)
            self.up = up.astype(rdtype)
            self.down = np.ascontiguousarray(up.T, dtype=rdtype)
        else:
            self.up = self.down = None

        # Batch chunk size: cap the per-chunk working set at ~8 MB so
        # it stays cache-resident.  Per mask that is the reduced field
        # stack, its power and partial transforms, and the full-grid
        # buffers: about four field stacks (two masks per chunk at
        # 128 px f64, four in f32, eight at 64 px f64).
        bytes_per_sample = (4 * self.num_kernels * raster * raster
                            * cdtype.itemsize)
        self.chunk = max(1, (8 << 20) // bytes_per_sample)


class LithoEngine:
    """Batched, cached Hopkins forward/adjoint lithography engine.

    Parameters
    ----------
    config:
        Lithography configuration; defaults to :meth:`LithoConfig.paper`
        when no kernel set is injected.
    kernels:
        Optional prebuilt :class:`KernelSet`; its config becomes the
        engine's config (and must match ``config`` when both are given).
    precision:
        ``"f64"`` (default) or ``"f32"``; ``None`` consults the
        ``REPRO_PRECISION`` environment variable.  f32 engines compute
        spectra, fields and the resist in single precision.
    conditions:
        Optional :class:`~repro.litho.conditions.ConditionSet` of
        (defocus, dose) process corners served by the ``condition_*``
        methods.  Defaults to the single nominal corner of ``config``;
        the corner kernel tensors are built lazily on first use, so
        nominal engines pay nothing.  The nominal methods (``aerial``,
        ``litho_error``, ...) always evaluate the engine's own config
        regardless of ``conditions``.

    All mask-consuming methods accept either a single ``(H, W)`` array
    or a batch ``(N, H, W)`` and return results of matching rank; error
    terms come back as a ``float`` for single masks and an ``(N,)``
    array for batches.  The ``condition_*`` methods add a corner axis
    ``C`` directly after the batch axis (or in front, for single
    masks).
    """

    def __init__(self, config: Optional[LithoConfig] = None,
                 kernels: Optional[KernelSet] = None,
                 precision: Optional[str] = None,
                 conditions: Optional[ConditionSet] = None):
        if kernels is None:
            config = config or LithoConfig.paper()
            kernels = build_kernels(config)
        elif config is not None and kernels.config != config:
            raise ValueError("injected kernels were built for a different config")
        self.config = kernels.config
        self.kernels = kernels
        self.precision = resolve_precision(precision)
        self._rdtype, self._cdtype = PRECISION_DTYPES[self.precision]
        self._nominal = self._stack("nominal", [kernels])

        if conditions is None:
            conditions = ConditionSet.nominal(
                defocus=self.config.optics.defocus)
        elif not isinstance(conditions, ConditionSet):
            raise TypeError(
                f"conditions must be a ConditionSet, got {conditions!r}")
        self.conditions = conditions
        self._condition_plan: Optional[Tuple[_KernelStack, _Corners]] = None

        self.workspace = Workspace()
        self.metrics = MetricsRegistry()
        self.stats = EngineStats(self.metrics)

    def _stack(self, tag: str, kernel_sets: List[KernelSet]) -> _KernelStack:
        return _KernelStack(tag, kernel_sets, self._rdtype, self._cdtype)

    # ------------------------------------------------------------------
    @classmethod
    def for_kernels(cls, kernels: KernelSet,
                    precision: Optional[str] = None) -> "LithoEngine":
        """Shared engine for a kernel set (memoized per precision on
        the instance)."""
        precision = resolve_precision(precision)
        engines = kernels.__dict__.get("_engines")
        if engines is None:
            engines = {}
            object.__setattr__(kernels, "_engines", engines)
        engine = engines.get(precision)
        if engine is None:
            engine = cls(kernels=kernels, precision=precision)
            engines[precision] = engine
        return engine

    @classmethod
    def for_conditions(cls, kernels: KernelSet, conditions: ConditionSet,
                       precision: Optional[str] = None) -> "LithoEngine":
        """Shared engine serving a condition stack (memoized per
        (conditions, precision) on the nominal kernel set).

        A single-nominal-corner stack *is* the plain engine: this
        returns the :meth:`for_kernels` instance, so C=1 results are
        bit-exact with the nominal methods.
        """
        if conditions.is_single_nominal(kernels.config.optics.defocus):
            return cls.for_kernels(kernels, precision)
        precision = resolve_precision(precision)
        engines = kernels.__dict__.get("_condition_engines")
        if engines is None:
            engines = {}
            object.__setattr__(kernels, "_condition_engines", engines)
        key = (conditions, precision)
        engine = engines.get(key)
        if engine is None:
            engine = cls(kernels=kernels, precision=precision,
                         conditions=conditions)
            engines[key] = engine
        return engine

    @property
    def grid(self) -> int:
        return self.kernels.grid

    @property
    def raster_size(self) -> int:
        """Points per axis of the raster the per-kernel work runs on:
        ``2R-1`` for ``R`` signed passband frequencies, capped at the
        grid."""
        return self._nominal.raster

    @property
    def threshold(self) -> float:
        return self.config.threshold

    # ------------------------------------------------------------------
    def _as_batch(self, masks: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Promote a mask or mask stack to ``(N, grid, grid)``."""
        masks = np.asarray(masks)
        if masks.dtype != self._rdtype:
            masks = masks.astype(self._rdtype)
        single = masks.ndim == 2
        if single:
            masks = masks[None]
        if masks.ndim != 3 or masks.shape[-2] != masks.shape[-1]:
            raise ValueError(
                "mask must be square 2-D or a square (N, H, W) batch, got "
                f"shape {masks.shape if not single else masks.shape[1:]}")
        if masks.shape[-1] != self.grid:
            raise ValueError(
                f"mask grid {masks.shape[-1]} != kernel grid {self.grid}")
        return masks, single

    def _as_targets(self, targets: np.ndarray) -> np.ndarray:
        targets = np.asarray(targets)
        if targets.dtype != self._rdtype:
            targets = targets.astype(self._rdtype)
        if targets.shape[-2:] != (self.grid,) * 2:
            raise ValueError(
                f"target shape {targets.shape} does not match grid {self.grid}")
        return targets

    def _nominal_plan(self, dose: float) -> _Corners:
        return _Corners((0,), (float(dose),),
                        np.ones(1, dtype=self._rdtype))

    def _compact_spectrum(self, stack: _KernelStack, batch: np.ndarray,
                          spectrum: Optional[np.ndarray] = None
                          ) -> np.ndarray:
        """Mask spectrum evaluated on the stack's passband, ``(N, R, C)``.

        Without a precomputed full spectrum this is two thin complex
        matmuls (the DFT restricted to the support) — no full-grid FFT
        is ever materialized.  Condition-independent: defocus is a
        pupil phase and dose an intensity scale.
        """
        if spectrum is not None:
            return np.ascontiguousarray(
                spectrum[:, stack.rows[:, None], stack.cols[None, :]],
                dtype=self._cdtype)
        ws, tag = self.workspace, stack.tag
        n, grid = batch.shape[0], self.grid
        n_rows, n_cols = len(stack.rows), len(stack.cols)
        with trace.span("litho.spectrum", masks=n):
            complex_batch = ws.get((tag, "spec.batch"), (n, grid, grid),
                                   self._cdtype)
            complex_batch[...] = batch
            partial = np.matmul(
                stack.spec_row, complex_batch,
                out=ws.get((tag, "spec.partial"), (n, n_rows, grid),
                           self._cdtype))
            return np.matmul(
                partial, stack.spec_col,
                out=ws.get((tag, "spec.compact"), (n, n_rows, n_cols),
                           self._cdtype))

    def _forward_impl(self, stack: _KernelStack, compact: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Fields and per-group intensities of a compact spectrum (no
        accounting).

        Returns ``(group_intensity, fields)``: the aerial image of each
        defocus group on the full raster, ``(F, N, G, G)``, and every
        stacked kernel's (``sqrt(w_k)``-scaled) field on the reduced
        raster, ``(K, N, g, g)``.  Both live in the workspace arena and
        must be consumed before the next engine call.
        """
        ws, tag = self.workspace, stack.tag
        n, (n_rows, n_cols) = compact.shape[0], compact.shape[1:]
        g, grid, k = stack.raster, self.grid, stack.num_kernels

        prod = ws.get((tag, "passband"), (k, n, n_rows, n_cols),
                      self._cdtype)
        np.multiply(stack.freq_cc[:, None], compact[None], out=prod)
        partial = np.matmul(
            prod, stack.ifft_col,
            out=ws.get((tag, "partial"), (k, n, n_rows, g),
                       self._cdtype))
        fields = np.matmul(
            stack.ifft_row, partial,
            out=ws.get((tag, "fwd.fields"), (k, n, g, g), self._cdtype))

        # Sum of |f_k|^2 over each group's kernels, in kernel order.
        power = ws.get((tag, "fwd.power"), fields.shape, self._rdtype)
        np.multiply(fields.real, fields.real, out=power)
        power += fields.imag ** 2
        reduced = ws.get((tag, "fwd.reduced"), (stack.num_groups, n, g, g),
                         self._rdtype)
        for f, group in enumerate(stack.group_slices):
            np.sum(power[group], axis=0, out=reduced[f])
        if stack.up is None:
            return reduced, fields

        # Exact band-limited resample onto the full raster: U I_g U^T.
        half = np.matmul(
            reduced, stack.down,
            out=ws.get((tag, "fwd.up"), (stack.num_groups, n, g, grid),
                       self._rdtype))
        intensity = np.matmul(
            stack.up, half,
            out=ws.get((tag, "fwd.intensity"),
                       (stack.num_groups, n, grid, grid), self._rdtype))
        return intensity, fields

    def _forward(self, stack: _KernelStack, plan: _Corners,
                 batch: np.ndarray, **span_args) -> np.ndarray:
        """Public forward pipeline: per-corner aerial images
        ``(N, C, G, G)`` (freshly allocated) plus accounting.

        Every execution bumps the ``forward_*`` stats and opens a
        ``litho.forward`` span; the adjoint path calls
        :meth:`_forward_impl` directly so its nested forward work is
        attributed to ``gradient_*`` instead of being double-counted.
        """
        n, grid, chunk = batch.shape[0], self.grid, stack.chunk
        started = time.perf_counter()
        with trace.span("litho.forward", masks=n, **span_args):
            out = np.empty((n, len(plan.doses), grid, grid),
                           dtype=self._rdtype)
            for i in range(0, n, chunk):
                part = slice(i, i + chunk)
                group_intensity, _ = self._forward_impl(
                    stack, self._compact_spectrum(stack, batch[part]))
                for c, (group, dose) in enumerate(zip(plan.group_of,
                                                      plan.doses)):
                    if dose != 1.0:
                        np.multiply(group_intensity[group], dose,
                                    out=out[part, c])
                    else:
                        out[part, c] = group_intensity[group]
        self.stats.record_forward(n, time.perf_counter() - started)
        return out

    def _fields(self, batch: np.ndarray,
                spectrum: Optional[np.ndarray] = None) -> np.ndarray:
        """Coherent fields ``M (x) h_k`` on the full raster,
        ``(N, K, grid, grid)`` — a reference path off the hot loops."""
        stack, grid = self._nominal, self.grid
        compact = self._compact_spectrum(stack, batch, spectrum)
        kernels = np.asarray(self.kernels.freq_kernels[
            :, stack.rows[:, None], stack.cols[None, :]], dtype=self._cdtype)
        x = np.arange(grid)
        row = _dft_factor(x, stack.rows, +1, 1.0 / grid, grid, self._cdtype)
        col = _dft_factor(stack.cols, x, +1, 1.0 / grid, grid, self._cdtype)
        stacked = row @ ((kernels[:, None] * compact[None]) @ col)
        return stacked.transpose(1, 0, 2, 3)

    # ------------------------------------------------------------------
    # Forward model
    # ------------------------------------------------------------------
    def spectrum(self, mask: np.ndarray) -> np.ndarray:
        """Full FFT of a mask or mask batch (rfft2 + Hermitian expand).

        A reference path: the hot paths never call it — they evaluate
        the passband directly via matmul-DFTs.
        """
        batch, single = self._as_batch(mask)
        full = real_spectrum(batch)
        return full[0] if single else full

    def fields(self, mask: np.ndarray,
               spectrum: Optional[np.ndarray] = None) -> np.ndarray:
        """Coherent fields per kernel: ``(K, H, W)`` or ``(N, K, H, W)``."""
        batch, single = self._as_batch(mask)
        if spectrum is not None and spectrum.ndim == 2:
            spectrum = spectrum[None]
        fields = self._fields(batch, spectrum)
        return fields[0] if single else fields

    def aerial(self, mask: np.ndarray, dose: float = 1.0) -> np.ndarray:
        """Aerial image (Eq. 2), scaled by the exposure ``dose``."""
        batch, single = self._as_batch(mask)
        intensity = self._forward(self._nominal, self._nominal_plan(dose),
                                  batch)[:, 0]
        return intensity[0] if single else intensity

    def aerial_and_fields(self, mask: np.ndarray, dose: float = 1.0
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """``(intensity, fields)``, fields on the full raster."""
        batch, single = self._as_batch(mask)
        intensity = self.aerial(batch, dose=dose)
        fields = self._fields(batch)
        if single:
            return intensity[0], fields[0]
        return intensity, fields

    def wafer(self, mask: np.ndarray, dose: float = 1.0) -> np.ndarray:
        """Binary wafer image under the hard-threshold resist (Eq. 3)."""
        return hard_resist(self.aerial(mask, dose=dose), self.threshold)

    def relaxed_wafer(self, mask: np.ndarray, dose: float = 1.0,
                      resist_steepness: Optional[float] = None) -> np.ndarray:
        """Differentiable wafer image under the sigmoid resist (Eq. 12)."""
        steepness = resist_steepness or self.config.resist_steepness
        return _stable_sigmoid(
            steepness * (self.aerial(mask, dose=dose) - self.threshold))

    def litho_error(self, mask: np.ndarray, target: np.ndarray,
                    relaxed: bool = False, dose: float = 1.0) -> ArrayOrScalar:
        """Squared L2 litho error ``||Z_t - Z||^2`` (Eq. 11) per mask."""
        batch, single = self._as_batch(mask)
        targets = self._as_targets(target)
        wafer = (self.relaxed_wafer(batch, dose=dose) if relaxed
                 else self.wafer(batch, dose=dose))
        diff = wafer - targets
        errors = np.sum(diff * diff, axis=(-2, -1))
        return float(errors[0]) if single else errors

    def discrete_l2(self, mask: np.ndarray, target: np.ndarray,
                    dose: float = 1.0) -> ArrayOrScalar:
        """Discrete squared-L2 (Definition 1) of hard-resist wafers."""
        return self.litho_error(mask, target, relaxed=False, dose=dose)

    # ------------------------------------------------------------------
    # Adjoint model (Eq. 14)
    # ------------------------------------------------------------------
    def _error_and_gradient(
            self, stack: _KernelStack, plan: _Corners, objective: str,
            mask_relaxed: np.ndarray, target: np.ndarray,
            threshold: Optional[float], resist_steepness: Optional[float],
            **span_args) -> Tuple[ArrayOrScalar, np.ndarray]:
        """Aggregated relaxed litho error and its mask gradient, with
        accounting; large batches run in chunks of independent
        samples (bit-exact with one call)."""
        started = time.perf_counter()
        threshold = self.threshold if threshold is None else threshold
        steepness = (self.config.resist_steepness if resist_steepness is None
                     else resist_steepness)
        batch, single = self._as_batch(mask_relaxed)
        targets = self._as_targets(target)
        if targets.ndim == 2:
            targets = np.broadcast_to(targets, batch.shape)

        n, chunk = batch.shape[0], stack.chunk
        with trace.span("litho.adjoint", masks=n, **span_args):
            errors = np.empty(n, dtype=self._rdtype)
            grads = np.empty(batch.shape, dtype=self._rdtype)
            for i in range(0, n, chunk):
                part = slice(i, i + chunk)
                self._gradient_chunk(stack, plan, objective, batch[part],
                                     targets[part], threshold, steepness,
                                     errors[part], grads[part])
        self.stats.record_gradient(n, time.perf_counter() - started)
        if single:
            return float(errors[0]), grads[0]
        return errors, grads

    def _gradient_chunk(
            self, stack: _KernelStack, plan: _Corners, objective: str,
            batch: np.ndarray, targets: np.ndarray, threshold: float,
            steepness: float, errors_out: np.ndarray,
            grads_out: np.ndarray) -> None:
        """One chunk of the adjoint, written into ``errors_out`` /
        ``grads_out``."""
        ws, tag = self.workspace, stack.tag
        group_intensity, fields = self._forward_impl(
            stack, self._compact_spectrum(stack, batch))
        n, grid, g = batch.shape[0], self.grid, stack.raster
        num_corners = len(plan.doses)

        # Per-corner errors and upstream dE_c/dI (resist slope and the
        # dose chain-rule factor folded in).
        errors = np.empty((n, num_corners), dtype=self._rdtype)
        upstream = []
        for c, (group, dose) in enumerate(zip(plan.group_of, plan.doses)):
            intensity = group_intensity[group]
            if dose != 1.0:
                intensity = intensity * dose
            wafer = _stable_sigmoid(steepness * (intensity - threshold))
            diff = wafer - targets
            errors[:, c] = np.sum(diff * diff, axis=(-2, -1))
            grad_intensity = 2.0 * steepness * diff * wafer * (1.0 - wafer)
            if dose != 1.0:
                grad_intensity *= dose
            upstream.append(grad_intensity)

        # Aggregation coefficients per (sample, corner).
        if objective == "weighted":
            coef = np.broadcast_to(plan.lam, (n, num_corners))
            aggregated = errors @ plan.lam
        else:  # worst corner, per sample
            worst = np.argmax(errors, axis=1)
            coef = np.zeros((n, num_corners), dtype=self._rdtype)
            coef[np.arange(n), worst] = 1.0
            aggregated = errors[np.arange(n), worst]

        # Combine corner upstreams per defocus group, then resample
        # them onto the reduced raster: U^T (dE/dI) U.
        combined = ws.zeros((tag, "adj.combined"),
                            (stack.num_groups, n, grid, grid), self._rdtype)
        for c, group in enumerate(plan.group_of):
            combined[group] += coef[:, c, None, None] * upstream[c]
        if stack.up is not None:
            half = np.matmul(
                combined, stack.up,
                out=ws.get((tag, "adj.down"),
                           (stack.num_groups, n, grid, g), self._rdtype))
            combined = np.matmul(
                stack.down, half,
                out=ws.get((tag, "adj.reduced"),
                           (stack.num_groups, n, g, g), self._rdtype))

        # Adjoint push through every coherent system: transform
        # ``conj(f_k) dE/dI`` onto the flipped kernel's passband,
        # multiply there (``adj_cc`` carries ``2 sqrt(w_k)``) and sum
        # over k.  The fields are spent, so the product overwrites
        # them, and the transforms reuse the forward's buffers.
        weighted = np.conjugate(fields, out=fields)
        for f, group in enumerate(stack.group_slices):
            weighted[group] *= combined[f]
        n_arows, n_acols = stack.adj_cc.shape[1:]
        partial = np.matmul(
            stack.fft_row, weighted,
            out=ws.get((tag, "partial"), (stack.num_kernels, n, n_arows, g),
                       self._cdtype))
        spectra = np.matmul(
            partial, stack.fft_col,
            out=ws.get((tag, "passband"),
                       (stack.num_kernels, n, n_arows, n_acols),
                       self._cdtype))
        spectra *= stack.adj_cc[:, None]
        accumulated = np.sum(
            spectra, axis=0,
            out=ws.get((tag, "adj.acc"), (n, n_arows, n_acols),
                       self._cdtype))
        expanded = np.matmul(
            stack.grad_row,
            np.matmul(
                accumulated, stack.grad_col,
                out=ws.get((tag, "adj.expand"), (n, n_arows, grid),
                           self._cdtype)),
            out=ws.get((tag, "adj.grad"), (n, grid, grid), self._cdtype))
        errors_out[...] = aggregated
        grads_out[...] = expanded.real

    def error_and_gradient_wrt_mask(
            self, mask_relaxed: np.ndarray, target: np.ndarray,
            threshold: Optional[float] = None,
            resist_steepness: Optional[float] = None,
            dose: float = 1.0) -> Tuple[ArrayOrScalar, np.ndarray]:
        """Relaxed litho error and gradient w.r.t. the relaxed mask.

        This is the inner term of Eq. 14 — the quantity Algorithm 2
        back-propagates into the generator — computed for the whole
        batch in one pipeline.
        """
        return self._error_and_gradient(
            self._nominal, self._nominal_plan(dose), "weighted",
            mask_relaxed, target, threshold, resist_steepness)

    def error_and_gradient(
            self, mask_params: np.ndarray, target: np.ndarray,
            threshold: Optional[float] = None,
            resist_steepness: Optional[float] = None,
            mask_steepness: Optional[float] = None,
            dose: float = 1.0) -> Tuple[ArrayOrScalar, np.ndarray]:
        """Relaxed litho error and gradient w.r.t. unconstrained ILT
        parameters ``M`` (Eq. 14 in full, including the mask sigmoid)."""
        beta = (self.config.mask_steepness if mask_steepness is None
                else mask_steepness)
        params = np.asarray(mask_params)
        if params.dtype != self._rdtype:
            params = params.astype(self._rdtype)
        relaxed = sigmoid_mask(params, beta)
        error, grad_mb = self.error_and_gradient_wrt_mask(
            relaxed, target, threshold=threshold,
            resist_steepness=resist_steepness, dose=dose)
        grad = beta * relaxed * (1.0 - relaxed) * grad_mb
        return error, grad

    # ------------------------------------------------------------------
    def binarized_score(self, mask_params: np.ndarray, target: np.ndarray,
                        mask_steepness: Optional[float] = None
                        ) -> Tuple[np.ndarray, ArrayOrScalar]:
        """Binarize relaxed parameters and score the hard-resist wafer.

        Returns ``(masks, discrete_l2)`` — the evaluate step both ILT
        optimizers run every few iterations to track the best discrete
        mask (Definition 1).
        """
        beta = (self.config.mask_steepness if mask_steepness is None
                else mask_steepness)
        masks = binarize_mask(sigmoid_mask(
            np.asarray(mask_params, dtype=np.float64), beta))
        return masks, self.discrete_l2(masks, target)

    # ------------------------------------------------------------------
    # Condition stacks (process-window corners)
    # ------------------------------------------------------------------
    @property
    def num_conditions(self) -> int:
        return self.conditions.num_conditions

    def _kernels_for_defocus(self, defocus: float) -> KernelSet:
        """Kernel set for one defocus plane, through the build caches.

        Defocus lives in ``OpticsConfig`` so :func:`build_kernels`
        serves repeats from its in-process cache and persists new
        planes to the disk kernel cache (``config_hash`` covers
        defocus).
        """
        if defocus == self.config.optics.defocus:
            return self.kernels
        focus_config = replace(
            self.config, optics=replace(self.config.optics,
                                        defocus=float(defocus)))
        return build_kernels(focus_config)

    def _condition(self) -> Tuple[_KernelStack, _Corners]:
        """The corner stack and its corners, built on first use.

        A single nominal corner reuses the nominal stack, so its
        results are bit-exact with the nominal methods.
        """
        if self._condition_plan is None:
            conditions = self.conditions
            groups = conditions.defocus_groups()
            if conditions.is_single_nominal(self.config.optics.defocus):
                stack = self._nominal
            else:
                stack = self._stack("condition", [
                    self._kernels_for_defocus(defocus)
                    for defocus, _ in groups])
            group_of = [0] * self.num_conditions
            for f, (_, indices) in enumerate(groups):
                for c in indices:
                    group_of[c] = f
            corners = _Corners(
                tuple(group_of), tuple(float(d) for d in conditions.doses),
                conditions.normalized_weights().astype(self._rdtype))
            self._condition_plan = (stack, corners)
        return self._condition_plan

    def condition_aerial(self, mask: np.ndarray) -> np.ndarray:
        """Aerial images at every corner: ``(C, H, W)`` or ``(N, C, H, W)``.

        Corner ordering follows ``self.conditions.corners``.
        """
        batch, single = self._as_batch(mask)
        stack, plan = self._condition()
        out = self._forward(stack, plan, batch, corners=self.num_conditions)
        return out[0] if single else out

    def condition_wafers(self, mask: np.ndarray) -> np.ndarray:
        """Hard-resist wafers at every corner (Eq. 3 per corner)."""
        return hard_resist(self.condition_aerial(mask), self.threshold)

    def condition_relaxed_wafers(self, mask: np.ndarray,
                                 resist_steepness: Optional[float] = None
                                 ) -> np.ndarray:
        """Sigmoid-resist wafers at every corner (Eq. 12 per corner)."""
        steepness = resist_steepness or self.config.resist_steepness
        return _stable_sigmoid(
            steepness * (self.condition_aerial(mask) - self.threshold))

    def condition_litho_errors(self, mask: np.ndarray, target: np.ndarray,
                               relaxed: bool = False) -> np.ndarray:
        """Per-corner litho errors ``(C,)`` or ``(N, C)`` (Eq. 11)."""
        batch, single = self._as_batch(mask)
        targets = self._as_targets(target)
        wafers = (self.condition_relaxed_wafers(batch) if relaxed
                  else self.condition_wafers(batch))
        diff = wafers - (targets[..., None, :, :]
                         if targets.ndim == 3 else targets)
        errors = np.sum(diff * diff, axis=(-2, -1))
        return errors[0] if single else errors

    def condition_error_and_gradient_wrt_mask(
            self, mask_relaxed: np.ndarray, target: np.ndarray,
            objective: str = "weighted",
            threshold: Optional[float] = None,
            resist_steepness: Optional[float] = None
            ) -> Tuple[ArrayOrScalar, np.ndarray]:
        """Corner-aggregated litho error and mask gradient (Eq. 14).

        ``objective="weighted"`` minimizes the corner-weight average
        ``E = sum_c lam_c E_c`` (lam normalized); ``"worst"`` follows
        the per-sample worst corner (a subgradient of ``max_c E_c``).
        Per-corner upstream intensity gradients are combined per
        defocus group, pushed through the stacked flipped kernels, and
        expanded once.
        """
        if objective not in ("weighted", "worst"):
            raise ValueError(
                f"objective must be 'weighted' or 'worst', got {objective!r}")
        stack, plan = self._condition()
        return self._error_and_gradient(
            stack, plan, objective, mask_relaxed, target, threshold,
            resist_steepness, corners=self.num_conditions)

    def condition_error_and_gradient(
            self, mask_params: np.ndarray, target: np.ndarray,
            objective: str = "weighted",
            threshold: Optional[float] = None,
            resist_steepness: Optional[float] = None,
            mask_steepness: Optional[float] = None
            ) -> Tuple[ArrayOrScalar, np.ndarray]:
        """Corner-aggregated error and gradient w.r.t. ILT parameters
        (the full Eq. 14 chain through the mask sigmoid)."""
        beta = (self.config.mask_steepness if mask_steepness is None
                else mask_steepness)
        params = np.asarray(mask_params)
        if params.dtype != self._rdtype:
            params = params.astype(self._rdtype)
        relaxed = sigmoid_mask(params, beta)
        error, grad_mb = self.condition_error_and_gradient_wrt_mask(
            relaxed, target, objective=objective, threshold=threshold,
            resist_steepness=resist_steepness)
        grad = beta * relaxed * (1.0 - relaxed) * grad_mb
        return error, grad
