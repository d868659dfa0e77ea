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

**Real arithmetic.**  Every kernel splits exactly into two Hermitian
parts, ``H = A + iB`` with ``A = (H + conj H(-f)) / 2`` and
``B = -i (H - conj H(-f)) / 2``.  A real mask has a Hermitian spectrum,
so ``a = IDFT(FFT(M) A)`` and ``b = IDFT(FFT(M) B)`` are real and
``|f|^2 = a^2 + b^2`` exactly.  The engine keeps the parts that do not
vanish (at nominal focus each kernel is even or odd, so one part per
kernel; a defocused kernel keeps both) and works only with real
fields.  Their spectra are Hermitian, so every transform runs on the
Hermitian half of the passband (signed column frequencies ``s >= 0``).

Where the work happens (``G`` = mask grid, ``R`` = signed pupil
frequencies per axis, ``R/2`` = its Hermitian half, ``J`` = real
fields, ``g`` = reduced raster):

* **mask spectrum** — the DFT of the mask on the half passband: one
  real GEMM onto the half columns, then one complex matmul onto the
  passband rows (``O(R G^2)`` per mask);
* **per field, on the g x g raster** — each field carries only the
  passband P, so its square and the adjoint products ``a_j dE/dI``
  only matter on the difference band P-P of ``2R-1`` frequencies.  A
  raster of ``g = 2R-1`` points per axis samples that band without
  aliasing, so fields, intensities and the adjoint spectra are
  computed there.  Each direction is one complex matmul over the full
  rows and one real GEMM over the half columns, the complex
  intermediate viewed as interleaved floats: ``O(g R (R + g) / 2)``
  per field and direction;
* **two exact resamples** — after the field sum the intensity moves
  up with the real band-limited interpolator ``I = U I_g U^T``
  (``U`` is ``G x g``), and before the adjoint loop ``dE/dI`` moves
  down with ``U^T (dE/dI) U``; both ``O(g G^2)`` per mask and group;
* **expand** — the accumulated half-passband adjoint spectrum is
  inverse-transformed once onto the full raster (``O(R G^2)``).

The field axis sits inside each mask's matrices — passband products
are ``(N, R, J, R/2)`` and fields ``(N, g, J, g)`` — so one matmul per
mask and DFT factor transforms all ``J`` fields, and no result depends
on how many masks share a call.  When ``2R-1 >= G`` (pixels coarser
than about 20 nm) the reduced raster is the full one, ``g = G``, and
both resamples are skipped.  ``g`` and ``J`` are derived from the
kernels; neither is an option.  Results match the plain ``fft2``
reference to ~1e-13 (DESIGN.md §16).

**Precision mode.**  ``precision="f32"`` runs the whole pipeline in
``float32``/``complex64`` (kernels, DFT factors, fields, resist);
``"f64"`` (the default) remains the parity reference.  Every ILT
descent evaluates its Eq. 14 error and gradient on the kernel set's
f32 engine, while the caller's engine scores the discrete masks
(:mod:`repro.ilt.optimizer`).  Documented f32 tolerance: relaxed
litho error within 1e-3 of the f64 value on normalized masks (see
DESIGN.md §10).

:meth:`LithoEngine.for_kernels` memoizes one engine per
(:class:`~repro.litho.kernels.KernelSet`, precision), so the ILT
optimizer, the training loops and the metrics built on one kernel set
share it automatically.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.numerics import stable_sigmoid
from repro.obs import trace

from .conditions import ConditionSet
from .config import LithoConfig
from .kernels import KernelSet, build_kernels
from .resist import binarize_mask, hard_resist, sigmoid_mask

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
    """Normalize a precision name; ``None`` means ``"f64"``."""
    if precision is None:
        return "f64"
    key = str(precision).strip().lower()
    if key not in _PRECISION_ALIASES:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of "
            f"{sorted(set(_PRECISION_ALIASES))}")
    return _PRECISION_ALIASES[key]


class EngineStats:
    """Litho call counters and wall-clock of every engine in the process.

    One instance is shared by all engines as :attr:`LithoEngine.stats`,
    so the nominal engine and every ``for_conditions`` corner stack
    count into the same six plain fields and no caller has to find
    them.  The engine is driven from one thread per process, so
    updates take no lock.  A forked worker
    inherits the parent's counts; a :meth:`snapshot` before a task and
    a :meth:`delta` after it count only the task's own work.

    ``forward_*`` counts executions of the *public* aerial-intensity
    pipeline only; the forward pass nested inside each adjoint
    evaluation is attributed to ``gradient_*`` instead, so
    ``forward_seconds`` and ``gradient_seconds`` partition engine
    compute time with no double-counting, and the call counters
    reconcile 1:1 with the ``litho.forward`` / ``litho.adjoint`` span
    counts of an active tracer.  ``*_masks`` accumulate batch sizes,
    so throughput is ``masks / seconds``.  Calls and masks are ints,
    seconds floats.
    """

    __slots__ = ("forward_calls", "forward_masks", "forward_seconds",
                 "gradient_calls", "gradient_masks", "gradient_seconds")

    def __init__(self):
        self.forward_calls = 0
        self.forward_masks = 0
        self.forward_seconds = 0.0
        self.gradient_calls = 0
        self.gradient_masks = 0
        self.gradient_seconds = 0.0

    def record_forward(self, masks: int, seconds: float) -> None:
        self.forward_calls += 1
        self.forward_masks += masks
        self.forward_seconds += seconds

    def record_gradient(self, masks: int, seconds: float) -> None:
        self.gradient_calls += 1
        self.gradient_masks += masks
        self.gradient_seconds += seconds

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict copy of the six counters."""
        return {"forward_calls": self.forward_calls,
                "forward_masks": self.forward_masks,
                "forward_seconds": self.forward_seconds,
                "gradient_calls": self.gradient_calls,
                "gradient_masks": self.gradient_masks,
                "gradient_seconds": self.gradient_seconds}

    def delta(self, before: Dict[str, float]) -> Dict[str, float]:
        """Growth of every counter since ``before`` (a :meth:`snapshot`)."""
        return {"forward_calls": self.forward_calls - before["forward_calls"],
                "forward_masks": self.forward_masks - before["forward_masks"],
                "forward_seconds":
                    self.forward_seconds - before["forward_seconds"],
                "gradient_calls":
                    self.gradient_calls - before["gradient_calls"],
                "gradient_masks":
                    self.gradient_masks - before["gradient_masks"],
                "gradient_seconds":
                    self.gradient_seconds - before["gradient_seconds"]}


def _dft_factor(a: np.ndarray, b: np.ndarray, sign: int, scale: float,
                grid: int, cdtype: np.dtype) -> np.ndarray:
    """DFT factor matrix ``exp(sign * 2j*pi/grid * a b^T) * scale``."""
    omega = 2j * np.pi / grid
    return (np.exp(sign * omega * np.outer(a, b)) * scale).astype(cdtype)


def _half_factor(points: int, freqs: np.ndarray, period: int,
                 rdtype: np.dtype) -> np.ndarray:
    """Real ``(points, 2F)`` analysis factor onto interleaved floats.

    Column pair ``(2i, 2i+1)`` holds ``(cos, -sin)`` of
    ``2 pi freqs[i] x / period``, so ``X @ factor`` is the DFT of the
    real rows of ``X`` at ``freqs``, laid out as the floats of a
    complex array.  Phases are reduced modulo ``period`` in integers.
    """
    phase = np.outer(np.arange(points), freqs) % period
    phase = 2.0 * np.pi * phase / period
    factor = np.empty((points, 2 * len(freqs)))
    factor[:, 0::2] = np.cos(phase)
    factor[:, 1::2] = -np.sin(phase)
    return factor.astype(rdtype)


def _signed(bins: np.ndarray, grid: int) -> np.ndarray:
    """Signed frequency of each FFT bin index (``k`` or ``k - grid``)."""
    return (bins + grid // 2) % grid - grid // 2


#: Real and imaginary components of a Hermitian kernel part below this
#: fraction of the kernel's peak are SVD rounding and are zeroed; a part
#: left with no nonzero entry is dropped.  On the test grids the noise
#: sits below 1e-10 of the peak and every real component above 1e-8.
#: Zeroed noise moves the intensity and the gradient by far less than
#: the 1e-10 parity gate, and keeps f32 tables free of denormals, which
#: would slow every product they enter.
_PART_CUTOFF = 1e-10


def _hermitian_parts(kernel_sets: List[KernelSet]
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int]]:
    """Non-vanishing Hermitian parts of every kernel, ``sqrt(w_k)``-scaled.

    ``H = A + iB`` with ``A = (H + conj H(-f)) / 2`` and
    ``B = -i (H - conj H(-f)) / 2``; both satisfy
    ``X(-f) = conj X(f)``.  The parts are built on the block of FFT
    rows and columns that hold passband points, or their mirrors, of
    any kernel set (every entry outside it is zero), so a stack never
    holds full-grid copies of its kernels.  The block is symmetric, so
    the mirrored kernels ``H(-f)`` are the block itself with its rows
    and columns reversed in frequency.  Returns the kept parts,
    ``(J, R, C)`` in kernel order (A before B), the FFT rows and columns
    of the block where any kept part is nonzero, and the number kept
    per kernel set.
    """
    grid = kernel_sets[0].grid
    support = np.zeros((2, grid), dtype=bool)
    for ks in kernel_sets:
        support[0, ks.rows] = True
        support[1, ks.cols] = True
    support |= support[:, (-np.arange(grid)) % grid]  # mirror: -f
    rows, cols = np.flatnonzero(support[0]), np.flatnonzero(support[1])
    flip_rows = np.searchsorted(rows, (-rows) % grid)[:, None]
    flip_cols = np.searchsorted(cols, (-cols) % grid)[None, :]

    parts, sizes = [], []
    for ks in kernel_sets:
        root_weights = np.sqrt(ks.weights)[:, None, None]
        kernels = root_weights * ks.block(rows, cols)
        mirrored = np.conj(kernels[:, flip_rows, flip_cols])
        even = (kernels + mirrored) / 2
        odd = (kernels - mirrored) * -0.5j
        noise = _PART_CUTOFF * np.abs(kernels).max(axis=(1, 2), keepdims=True)
        for component in (even.real, even.imag, odd.real, odd.imag):
            component[np.abs(component) < noise] = 0.0
        kept = [part for pair in zip(even, odd) for part in pair
                if np.any(part)]
        parts.extend(kept)
        sizes.append(len(kept))
    parts = np.stack(parts)
    live_rows = np.any(parts != 0, axis=(0, 2))
    live_cols = np.any(parts != 0, axis=(0, 1))
    return (parts[:, live_rows][:, :, live_cols], rows[live_rows],
            cols[live_cols], sizes)


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
    """Precomputed Hermitian kernel parts and DFT factors for one or
    more defocus groups.

    Kernel sets are split into their non-vanishing Hermitian parts
    (:func:`_hermitian_parts`) and concatenated along the field axis;
    ``group_slices[f]`` are the fields of defocus group ``f``, and
    every corner of that group shares them — dose is applied as an
    intensity scale afterwards.  The nominal engine is the one-group
    stack of its own kernels.  Transforms are restricted to the union
    passband of all parts (symmetric, since every part is Hermitian),
    and its columns to the Hermitian half ``s >= 0``.

    ``table`` carries ``sqrt(w_k)`` and ``adjoint`` is
    ``2 conj(table)`` (the Eq. 14 factor ``2 w_k`` in total), so the
    intensity is a plain sum of squared fields.
    """

    __slots__ = ("num_fields", "num_groups", "group_slices", "rows",
                 "cols", "half", "raster", "table", "adjoint", "spec_row",
                 "spec_col", "field_row", "field_col", "fft_row", "fft_col",
                 "grad_row", "grad_col", "up", "down", "chunk")

    def __init__(self, kernel_sets: List[KernelSet],
                 rdtype: np.dtype, cdtype: np.dtype):
        grid = kernel_sets[0].grid
        parts, rows, cols, sizes = _hermitian_parts(kernel_sets)
        self.num_fields = len(parts)
        starts = np.cumsum([0] + sizes)
        self.num_groups = len(kernel_sets)
        self.group_slices = tuple(slice(int(starts[f]), int(starts[f + 1]))
                                  for f in range(self.num_groups))

        # Passband support: the frequency rows/columns where any part is
        # nonzero.  Everything outside is identically zero (pupil
        # cutoff), so transforms restricted to this block are exact.
        # Hermitian parts make it symmetric; the half columns are the
        # signed frequencies s >= 0, and every other column is the
        # conjugate mirror of one of them.
        srows, scols = _signed(rows, grid), _signed(cols, grid)
        self.rows, self.cols = rows, cols
        self.half = cols[scols >= 0]
        shalf = scols[scols >= 0]
        # Tables are (R, J, R/2): the fields sit between the two
        # frequency axes, so one matmul over the rows transforms every
        # field of a mask at once.
        self.table = np.ascontiguousarray(
            parts[:, :, scols >= 0].transpose(1, 0, 2), dtype=cdtype)
        self.adjoint = np.ascontiguousarray(2.0 * np.conj(self.table))

        # Reduced raster: fields carry the signed passband frequencies
        # s, so their squares and the adjoint products live on the
        # difference band s - s'.  2 * span + 1 points per axis sample
        # it without aliasing.
        span = max(np.ptp(srows), np.ptp(scols))
        self.raster = raster = min(grid, 2 * int(span) + 1)

        # Real-output inverse transforms sum each half column twice
        # (s and its mirror -s), except s = 0, which is its own mirror.
        mirror = np.repeat(np.where(shalf == 0, 1.0, 2.0), 2)
        x = np.arange(grid)
        j = np.arange(raster)
        # ``M @ spec_col`` then ``spec_row @ .`` is the mask DFT on the
        # half passband; ``field_row`` and ``field_col`` sample the real
        # field of a half-passband spectrum at the raster points j G/g
        # (scale 1/G per axis, as on the full raster); ``fft_*`` is the
        # forward DFT of a raster image onto the half passband, and
        # ``grad_*`` inverts from it onto the full grid.  The ``*_col``
        # factors are real and act on interleaved complex floats.
        self.spec_row = _dft_factor(rows, x, -1, 1.0, grid, cdtype)
        self.spec_col = _half_factor(grid, shalf, grid, rdtype)
        self.field_row = _dft_factor(j, srows, +1, 1.0 / grid, raster, cdtype)
        self.fft_col = _half_factor(raster, shalf, raster, rdtype)
        self.field_col = np.ascontiguousarray(
            (self.fft_col * mirror / grid).T, dtype=rdtype)
        self.fft_row = _dft_factor(srows, j, -1, 1.0, raster, cdtype)
        self.grad_row = _dft_factor(x, rows, +1, 1.0 / grid, grid, cdtype)
        self.grad_col = np.ascontiguousarray(
            (self.spec_col * mirror / grid).T, dtype=rdtype)
        if raster < grid:
            up = _band_interpolator(grid, raster)
            self.up = up.astype(rdtype)
            self.down = np.ascontiguousarray(up.T, dtype=rdtype)
        else:
            self.up = self.down = None

        # Batch chunk size: cap the per-chunk working set at ~8 MB so
        # it stays cache-resident.  Per mask that is the real field
        # stack, its squares, the half-passband partial transforms and
        # the full-grid buffers: about four real field stacks (four
        # masks per chunk at 128 px f64, nine in f32, 17 at 64 px f64).
        bytes_per_sample = (4 * self.num_fields * raster * raster
                            * rdtype.itemsize)
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
        ``"f64"`` (default) or ``"f32"``.  f32 engines compute spectra,
        fields and the resist in single precision.  The ILT optimizer
        descends on the f32 engine of its kernel set whatever this
        engine's precision, and scores on this engine.
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

    Every engine counts its public forward and adjoint calls into the
    one process-wide :attr:`stats`.
    """

    #: litho work of every engine in this process
    stats = EngineStats()

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
        self._nominal = self._stack([kernels])

        if conditions is None:
            conditions = ConditionSet.nominal(
                defocus=self.config.optics.defocus)
        elif not isinstance(conditions, ConditionSet):
            raise TypeError(
                f"conditions must be a ConditionSet, got {conditions!r}")
        self.conditions = conditions
        self._condition_plan: Optional[Tuple[_KernelStack, _Corners]] = None

    def _stack(self, kernel_sets: List[KernelSet]) -> _KernelStack:
        return _KernelStack(kernel_sets, self._rdtype, self._cdtype)

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

    def _compact_spectrum(self, stack: _KernelStack, batch: np.ndarray
                          ) -> np.ndarray:
        """Mask spectrum on the stack's half passband, ``(N, R, R/2)``.

        One real GEMM onto the half columns (the complex result
        written as interleaved floats), then one complex matmul onto
        the passband rows — no full-grid FFT is ever materialized.
        Condition-independent: defocus is a pupil phase and dose an
        intensity scale.
        """
        n, grid = batch.shape[0], self.grid
        n_half = len(stack.half)
        with trace.span("litho.spectrum", masks=n):
            partial = np.empty((n, grid, n_half), self._cdtype)
            np.matmul(batch, stack.spec_col, out=partial.view(self._rdtype))
            return np.matmul(stack.spec_row, partial)

    def _forward_impl(self, stack: _KernelStack, compact: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Fields and per-group intensities of a compact spectrum (no
        accounting).

        Returns ``(group_intensity, fields)``: the aerial image of each
        defocus group on the full raster, ``(F, N, G, G)``, and every
        stacked part's (``sqrt(w_k)``-scaled) real field on the reduced
        raster, ``(N, g, J, g)``.
        """
        n, (n_rows, n_half) = compact.shape[0], compact.shape[1:]
        g, grid, k = stack.raster, self.grid, stack.num_fields

        # Two GEMMs per mask for all of its fields: the complex row
        # transform of the (R, J * R/2) passband products, then the
        # real column transform of the interleaved result.  Per-mask
        # calls keep every result independent of the batch size.
        prod = np.multiply(stack.table, compact[:, :, None])
        partial = np.empty((n, g, k, n_half), self._cdtype)
        np.matmul(stack.field_row, prod.reshape(n, n_rows, -1),
                  out=partial.reshape(n, g, -1))
        fields = np.empty((n, g, k, g), self._rdtype)
        np.matmul(partial.view(self._rdtype).reshape(n, -1, 2 * n_half),
                  stack.field_col, out=fields.reshape(n, -1, g))

        # Sum of squared fields over each group's parts, in order: one
        # fused pass (the field axis is not contiguous, so a separate
        # square and sum would run short inner loops twice).
        reduced = np.empty((stack.num_groups, n, g, g), self._rdtype)
        for f, group in enumerate(stack.group_slices):
            part = fields[:, :, group]
            np.einsum("nxjy,nxjy->nxy", part, part, out=reduced[f])
        if stack.up is None:
            return reduced, fields

        # Exact band-limited resample onto the full raster: U I_g U^T.
        intensity = np.matmul(stack.up, np.matmul(reduced, stack.down))
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

    # ------------------------------------------------------------------
    # Forward model
    # ------------------------------------------------------------------
    def aerial(self, mask: np.ndarray, dose: float = 1.0) -> np.ndarray:
        """Aerial image (Eq. 2), scaled by the exposure ``dose``."""
        batch, single = self._as_batch(mask)
        intensity = self._forward(self._nominal, self._nominal_plan(dose),
                                  batch)[:, 0]
        return intensity[0] if single else intensity

    def wafer(self, mask: np.ndarray, dose: float = 1.0) -> np.ndarray:
        """Binary wafer image under the hard-threshold resist (Eq. 3)."""
        return hard_resist(self.aerial(mask, dose=dose), self.threshold)

    def litho_error(self, mask: np.ndarray, target: np.ndarray,
                    dose: float = 1.0) -> ArrayOrScalar:
        """Discrete squared L2 (Eq. 11, Definition 1) of the hard-resist
        wafer, ``||Z_t - Z||^2`` per mask."""
        batch, single = self._as_batch(mask)
        targets = self._as_targets(target)
        diff = self.wafer(batch, dose=dose) - targets
        errors = np.sum(diff * diff, axis=(-2, -1))
        return float(errors[0]) if single else errors

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
            wafer = stable_sigmoid(steepness * (intensity - threshold))
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
        combined = np.zeros((stack.num_groups, n, grid, grid), self._rdtype)
        for c, group in enumerate(plan.group_of):
            combined[group] += coef[:, c, None, None] * upstream[c]
        if stack.up is not None:
            combined = np.matmul(stack.down, np.matmul(combined, stack.up))

        # Adjoint push through every field: transform ``a_j dE/dI``
        # onto the half passband, multiply there by the adjoint table
        # (``2 conj`` of the forward one) and sum over j.  The fields
        # are spent, so the product overwrites them.
        weighted = fields
        for f, group in enumerate(stack.group_slices):
            weighted[:, :, group] *= combined[f][:, :, None]
        n_rows, k, n_half = stack.adjoint.shape
        partial = np.empty((n, g, k, n_half), self._cdtype)
        np.matmul(weighted.reshape(n, -1, g), stack.fft_col,
                  out=partial.view(self._rdtype).reshape(n, -1, 2 * n_half))
        spectra = np.empty((n, n_rows, k, n_half), self._cdtype)
        np.matmul(stack.fft_row, partial.reshape(n, g, -1),
                  out=spectra.reshape(n, n_rows, -1))
        spectra *= stack.adjoint
        expand = np.matmul(stack.grad_row, np.sum(spectra, axis=2))
        errors_out[...] = aggregated
        np.matmul(expand.view(self._rdtype), stack.grad_col, out=grads_out)

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

        Returns ``(masks, l2)`` — the evaluate step the ILT
        optimizer runs every few iterations to track the best discrete
        mask (Definition 1).
        """
        beta = (self.config.mask_steepness if mask_steepness is None
                else mask_steepness)
        masks = binarize_mask(sigmoid_mask(
            np.asarray(mask_params, dtype=np.float64), beta))
        return masks, self.litho_error(masks, target)

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
                stack = self._stack([
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

    def condition_litho_errors(self, mask: np.ndarray, target: np.ndarray
                               ) -> np.ndarray:
        """Per-corner hard-resist litho errors ``(C,)`` or ``(N, C)``
        (Eq. 11)."""
        batch, single = self._as_batch(mask)
        targets = self._as_targets(target)
        diff = self.condition_wafers(batch) - (
            targets[..., None, :, :] if targets.ndim == 3 else targets)
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
        defocus group, pushed through the stacked adjoint tables, and
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
