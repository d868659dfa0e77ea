"""Illumination source models for Hopkins imaging.

The partially coherent source is discretized into point sources on a
Cartesian grid inside the pupil-normalized sigma annulus.  Each point
contributes one coherent system ``P(f + f_s)``; the Hopkins transmission
cross coefficients are the (weighted) sum of their outer products, which
is what :mod:`repro.litho.kernels` eigendecomposes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .config import OpticsConfig


def source_points(optics: OpticsConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Discretize the annular source into point sources.

    Returns
    -------
    (points, weights):
        ``points`` has shape ``(S, 2)`` holding source coordinates in
        pupil-normalized units (fractions of NA/wavelength); ``weights``
        has shape ``(S,)`` and sums to 1.
    """
    n = optics.source_points
    axis = np.linspace(-optics.sigma_outer, optics.sigma_outer, n)
    sx, sy = np.meshgrid(axis, axis, indexing="ij")
    radius = np.hypot(sx, sy)
    inside = (radius <= optics.sigma_outer + 1e-12) & (radius >= optics.sigma_inner - 1e-12)
    points = np.stack([sx[inside], sy[inside]], axis=1)
    if len(points) == 0:
        raise ValueError("source discretization produced no points; "
                         "increase source_points")
    weights = np.full(len(points), 1.0 / len(points))
    return points, weights
