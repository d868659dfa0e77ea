"""``repro.ilt`` — inverse lithography technology engine.

Implements the pixel-based mask optimization the paper uses both as the
state-of-the-art baseline ([7], MOSAIC) and as the refinement stage of
the GAN-OPC flow: steepest descent on the relaxed lithography error
(Eqs. 11-13) with the analytic multi-kernel gradient (Eq. 14), which
:class:`~repro.litho.engine.LithoEngine` computes.
"""

from .optimizer import ILTConfig, ILTOptimizer, ILTResult

__all__ = ["ILTConfig", "ILTOptimizer", "ILTResult"]
