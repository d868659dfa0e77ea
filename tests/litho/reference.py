"""Reference imaging paths for the litho tests.

The engine evaluates Eq. 2 on a reduced raster from the half passband
and never forms a full spectrum or a coherent field.  These are the
textbook forms the tests check it against: the full FFT of a real mask,
the coherent fields ``M (x) h_k`` on the full grid, and the sigmoid
resist (Eq. 12) the adjoint evaluates inside its error.
"""

import numpy as np

from repro.numerics import stable_sigmoid


def real_spectrum(masks: np.ndarray) -> np.ndarray:
    """Full complex FFT of a real mask (stack) via ``rfft2``.

    Computes the half-spectrum with a real-input transform and expands
    it to the full FFT grid using Hermitian symmetry
    ``F[-u, -v] = conj(F[u, v])``.
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


def coherent_fields(engine, mask: np.ndarray,
                    spectrum: np.ndarray = None) -> np.ndarray:
    """Coherent fields per kernel, ``(K, H, W)`` or ``(N, K, H, W)``:
    the inverse FFT of each full-grid kernel times the mask spectrum."""
    if spectrum is None:
        spectrum = real_spectrum(mask)
    return np.fft.ifft2(engine.kernels.full_grid() * spectrum[..., None, :, :],
                        axes=(-2, -1))


def relaxed_wafer(engine, mask: np.ndarray) -> np.ndarray:
    """Sigmoid-resist wafer ``sigma(alpha (I - I_th))`` (Eq. 12)."""
    return stable_sigmoid(engine.config.resist_steepness
                          * (engine.aerial(mask) - engine.threshold))


def condition_relaxed_errors(engine, mask: np.ndarray,
                             target: np.ndarray) -> np.ndarray:
    """Per-corner Eq. 12 litho errors, ``(C,)`` for one mask."""
    wafers = stable_sigmoid(engine.config.resist_steepness
                            * (engine.condition_aerial(mask)
                               - engine.threshold))
    diff = wafers - target
    return np.sum(diff * diff, axis=(-2, -1))
