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
grid, so imaging is two FFTs per kernel with no resampling.
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
    freq_kernels:
        Complex array ``(N_h, grid, grid)`` in unshifted FFT layout; the
        k-th slice is ``H_k(f)``, the frequency response of kernel k.
    weights:
        Nonnegative weights ``w_k`` (TCC eigenvalues), normalized so a
        fully-open mask images to intensity 1.0 (clear-field dose).
    config:
        The :class:`LithoConfig` the kernels were built for.
    """

    freq_kernels: np.ndarray
    weights: np.ndarray
    config: LithoConfig

    @property
    def num_kernels(self) -> int:
        return len(self.weights)

    @property
    def grid(self) -> int:
        return self.freq_kernels.shape[-1]

    def spatial_kernels(self, shifted: bool = True) -> np.ndarray:
        """Inverse-transform kernels to the spatial domain.

        Parameters
        ----------
        shifted:
            If true, apply ``fftshift`` so each kernel is centered —
            convenient for visualization.
        """
        spatial = np.fft.ifft2(self.freq_kernels, axes=(-2, -1))
        if shifted:
            spatial = np.fft.fftshift(spatial, axes=(-2, -1))
        return spatial


_CACHE: Dict[Tuple, KernelSet] = {}

# Bump when the decomposition math changes so stale on-disk archives are
# never reused across incompatible builds.
_DISK_FORMAT_VERSION = 1


def config_hash(config: LithoConfig) -> str:
    """Stable content hash of a :class:`LithoConfig`.

    Hashes the canonical JSON of every field (optics included), so two
    equal configs always map to the same on-disk kernel archive and any
    parameter change invalidates it.
    """
    payload = json.dumps(
        {"version": _DISK_FORMAT_VERSION, "config": asdict(config)},
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


def _disk_load(path: str, config: LithoConfig) -> Optional[KernelSet]:
    try:
        with np.load(path) as archive:
            freq_kernels = np.asarray(archive["freq_kernels"])
            weights = np.asarray(archive["weights"])
        if (freq_kernels.ndim != 3 or freq_kernels.shape[-1] != config.grid
                or len(weights) != len(freq_kernels)):
            return None
        return KernelSet(freq_kernels=freq_kernels, weights=weights,
                         config=config)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        return None  # corrupt or partial archive: rebuild


def _disk_store(path: str, kernel_set: KernelSet) -> None:
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".npz",
                                   dir=os.path.dirname(path))
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, freq_kernels=kernel_set.freq_kernels,
                         weights=kernel_set.weights)
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
    vectors = vh[:rank].conj()  # eigenvectors of A^H A

    freq_kernels = np.zeros((rank, config.grid, config.grid), dtype=complex)
    for k in range(rank):
        kernel = np.zeros((config.grid, config.grid), dtype=complex)
        kernel[passband] = vectors[k]
        freq_kernels[k] = kernel

    # Normalize clear-field intensity to 1: a fully open mask has
    # FFT = N^2 * delta(0), imaging to sum_k w_k |H_k(0)|^2.
    dc_gain = float(np.sum(eigenvalues * np.abs(freq_kernels[:, 0, 0]) ** 2))
    if dc_gain <= 0:
        raise RuntimeError("degenerate kernel set: zero clear-field intensity")
    eigenvalues = eigenvalues / dc_gain

    kernel_set = KernelSet(freq_kernels=freq_kernels, weights=eigenvalues,
                           config=config)
    if cache:
        _CACHE[key] = kernel_set
    if disk_path:
        _disk_store(disk_path, kernel_set)
    return kernel_set


def clear_cache() -> None:
    """Drop all cached kernel sets (used by tests)."""
    _CACHE.clear()


def save_kernels(kernel_set: KernelSet, path: str) -> None:
    """Persist a kernel set as an ``.npz`` archive.

    Building kernels costs an SVD (sub-second at 64 px, ~1 s at 256 px,
    growing with the passband area); persisting them lets repeated
    command-line runs and paper-scale sweeps skip the rebuild.  Only
    the decomposition is stored — the config is revalidated on load.
    """
    import numpy as _np
    _np.savez(path,
              freq_kernels=kernel_set.freq_kernels,
              weights=kernel_set.weights,
              grid=kernel_set.config.grid,
              pixel_nm=kernel_set.config.pixel_nm)


def load_kernels(path: str, config: LithoConfig) -> KernelSet:
    """Load a kernel set saved by :func:`save_kernels`.

    The archive's grid/pixel metadata must match ``config``; a mismatch
    raises rather than silently simulating the wrong optics.
    """
    import os as _os
    import numpy as _np
    if not _os.path.exists(path) and _os.path.exists(path + ".npz"):
        path = path + ".npz"
    with _np.load(path) as archive:
        grid = int(archive["grid"])
        pixel_nm = float(archive["pixel_nm"])
        if grid != config.grid or pixel_nm != config.pixel_nm:
            raise ValueError(
                f"kernel archive is {grid}px @ {pixel_nm}nm but config is "
                f"{config.grid}px @ {config.pixel_nm}nm")
        return KernelSet(freq_kernels=archive["freq_kernels"],
                         weights=archive["weights"], config=config)
