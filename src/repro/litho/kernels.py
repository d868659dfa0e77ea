"""Hopkins TCC construction and SVD decomposition into coherent kernels.

Hopkins' partially-coherent imaging (Eq. 1 of the paper) is approximated
by its dominant coherent systems (Eq. 2): the transmission cross
coefficient (TCC) operator is decomposed so the aerial image becomes

    I = sum_k  w_k | M (x) h_k |^2 ,   k = 1..N_h  (N_h = 24).

Rather than forming the dense TCC matrix, we exploit that the TCC of a
discretized source is ``A^H A`` where row ``s`` of ``A`` is the
source-shifted pupil ``sqrt(w_s) * P(f + f_s)`` restricted to the
passband; the right singular vectors of ``A`` are then exactly the TCC
eigenvectors (Cobb 1998), obtained by one economy SVD.

Kernels are kept in the frequency domain on the simulation raster's FFT
grid, so imaging needs no resampling.  Only the passband points are
stored: every kernel is zero outside the pupil cutoff, and at 128 px the
511 passband values of 24 kernels take 0.19 MiB where the full complex
grid would take 6 MiB.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .config import LithoConfig
from .pupil import frequency_grid, pupil_function
from .source import source_points


@dataclass(frozen=True)
class KernelSet:
    """Coherent decomposition of a partially coherent imaging system.

    Attributes
    ----------
    values:
        Complex array ``(N_h, P)``: ``H_k(f)``, the frequency response
        of kernel k, at the P passband points.  Every kernel is zero
        outside the passband.
    rows, cols:
        Integer arrays ``(P,)``: the unshifted FFT-grid row and column
        of each passband point, in row-major order.
    weights:
        Nonnegative weights ``w_k`` (TCC eigenvalues), normalized so a
        fully-open mask images to intensity 1.0 (clear-field dose).
    config:
        The :class:`LithoConfig` the kernels were built for.
    """

    values: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    config: LithoConfig

    @property
    def num_kernels(self) -> int:
        return len(self.weights)

    @property
    def grid(self) -> int:
        return self.config.grid

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The kernels on the FFT rows x columns ``rows`` x ``cols``
        (each without repeats), ``(N_h, len(rows), len(cols))``;
        passband points outside the block are left out."""
        row_at = np.full(self.grid, -1)
        col_at = np.full(self.grid, -1)
        row_at[rows] = np.arange(len(rows))
        col_at[cols] = np.arange(len(cols))
        r, c = row_at[self.rows], col_at[self.cols]
        inside = (r >= 0) & (c >= 0)
        block = np.zeros((len(self.values), len(rows), len(cols)),
                         self.values.dtype)
        block[:, r[inside], c[inside]] = self.values[:, inside]
        return block

    def full_grid(self) -> np.ndarray:
        """The kernels on the whole FFT grid, ``(N_h, grid, grid)`` in
        unshifted layout (reference paths and visualization only)."""
        everything = np.arange(self.grid)
        return self.block(everything, everything)

    def spatial_kernels(self, shifted: bool = True) -> np.ndarray:
        """Inverse-transform kernels to the spatial domain.

        Parameters
        ----------
        shifted:
            If true, apply ``fftshift`` so each kernel is centered —
            convenient for visualization.
        """
        spatial = np.fft.ifft2(self.full_grid(), axes=(-2, -1))
        if shifted:
            spatial = np.fft.fftshift(spatial, axes=(-2, -1))
        return spatial


_CACHE: Dict[Tuple, KernelSet] = {}

# Bump when the decomposition math changes: every config hash changes
# with it, so kernels built by incompatible code are never reused and run
# records tell the two apart.  Version 2 stores the Eq. 1 kernels, not
# their complex conjugates.
_DECOMPOSITION_VERSION = 2

# Bump when the archive layout changes; an archive in any other format is
# rebuilt.  Version 2 stores the passband values and their indices, not
# the full grid.
_DISK_FORMAT_VERSION = 2


def config_hash(config: LithoConfig) -> str:
    """Stable content hash of a :class:`LithoConfig`.

    Hashes the canonical JSON of every field (optics included), so two
    equal configs always map to the same on-disk kernel archive and any
    parameter change invalidates it.
    """
    payload = json.dumps(
        {"version": _DECOMPOSITION_VERSION, "config": asdict(config)},
        sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _disk_cache_dir(disk_cache: Union[bool, str, None]) -> Optional[str]:
    """Resolve the on-disk cache directory (None disables caching).

    ``disk_cache`` may be an explicit directory, ``False`` to disable,
    or ``None`` to consult ``REPRO_KERNEL_CACHE`` (a path, or one of
    ``0/off/none`` to disable) and fall back to
    ``~/.cache/repro/kernels``.
    """
    if disk_cache is False:
        return None
    if isinstance(disk_cache, str):
        return disk_cache
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "none", "false"):
            return None
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "kernels")


_ARCHIVE_FIELDS = ("values", "rows", "cols", "weights")


def _disk_load(path: str, config: LithoConfig) -> Optional[KernelSet]:
    try:
        with np.load(path) as archive:
            if int(archive["format"]) != _DISK_FORMAT_VERSION:
                return None
            values, rows, cols, weights = (np.asarray(archive[name])
                                           for name in _ARCHIVE_FIELDS)
        if (values.ndim != 2 or rows.shape != values.shape[1:]
                or cols.shape != rows.shape or len(weights) != len(values)
                or not np.all((0 <= rows) & (rows < config.grid)
                              & (0 <= cols) & (cols < config.grid))):
            return None
        return KernelSet(values=values, rows=rows, cols=cols,
                         weights=weights, config=config)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        return None  # corrupt, partial or older-format archive: rebuild


def _disk_store(path: str, kernel_set: KernelSet) -> None:
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".npz",
                                   dir=os.path.dirname(path))
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, format=_DISK_FORMAT_VERSION,
                         **{name: getattr(kernel_set, name)
                            for name in _ARCHIVE_FIELDS})
            os.replace(tmp, path)  # atomic: concurrent runs never see partials
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass  # read-only filesystem etc.: caching is best-effort


def build_kernels(config: LithoConfig, cache: bool = True,
                  disk_cache: Union[bool, str, None] = None) -> KernelSet:
    """Build the coherent kernel set for a lithography configuration.

    The decomposition is deterministic for a given config and cached at
    two levels by default — in-process (kernel construction costs an SVD
    whose size scales with the passband area, so reusing it across
    simulator instances matters for the benchmark harness) and on disk
    under a stable :func:`config_hash` key (cold starts of benches,
    examples and CLI runs rebuild identical kernels repeatedly; the
    eigendecomposition is the slowest cold-start step).  Set
    ``disk_cache=False`` or ``REPRO_KERNEL_CACHE=off`` to disable the
    disk layer, or pass/point either at a directory to relocate it.
    """
    key = (config.optics, config.grid, config.pixel_nm)
    if cache and key in _CACHE:
        return _CACHE[key]

    cache_dir = _disk_cache_dir(disk_cache) if cache else None
    disk_path = (os.path.join(cache_dir, config_hash(config) + ".npz")
                 if cache_dir else None)
    if disk_path and os.path.exists(disk_path):
        loaded = _disk_load(disk_path, config)
        if loaded is not None:
            _CACHE[key] = loaded
            return loaded

    optics = config.optics
    fx, fy = frequency_grid(config.grid, config.pixel_nm)
    cutoff = optics.cutoff_frequency
    passband = (fx ** 2 + fy ** 2) <= cutoff ** 2 * (1.0 + 1e-9)
    n_pass = int(passband.sum())

    points, weights = source_points(optics)
    rows = np.empty((len(points), n_pass), dtype=complex)
    for s, (sx, sy) in enumerate(points):
        pupil = pupil_function(optics, fx, fy, shift=(sx, sy))
        rows[s] = np.sqrt(weights[s]) * pupil[passband]

    # Economy SVD: right singular vectors are TCC eigenvectors, squared
    # singular values are the eigenvalues.
    _, singular, vh = np.linalg.svd(rows, full_matrices=False)
    rank = min(config.optics.num_kernels, len(singular))
    eigenvalues = singular[:rank] ** 2
    # Eq. 1 reads the TCC as sum_s w_s P(f + f_s) P*(f' + f_s), that is
    # A^T conj(A) = conj(A^H A): its eigenvectors are the rows of vh.
    # Copied, so the set does not keep all of vh (one row per source
    # point) alive.
    vectors = vh[:rank].copy()

    rows, cols = np.nonzero(passband)

    # Normalize clear-field intensity to 1: a fully open mask has
    # FFT = N^2 * delta(0), imaging to sum_k w_k |H_k(0)|^2.  The DC bin
    # (0, 0) is the first passband point in row-major order.
    dc_gain = float(np.sum(eigenvalues * np.abs(vectors[:, 0]) ** 2))
    if dc_gain <= 0:
        raise RuntimeError("degenerate kernel set: zero clear-field intensity")
    eigenvalues = eigenvalues / dc_gain

    kernel_set = KernelSet(values=vectors, rows=rows, cols=cols,
                           weights=eigenvalues, config=config)
    if cache:
        _CACHE[key] = kernel_set
    if disk_path:
        _disk_store(disk_path, kernel_set)
    return kernel_set


def clear_cache() -> None:
    """Drop all cached kernel sets (used by tests)."""
    _CACHE.clear()

