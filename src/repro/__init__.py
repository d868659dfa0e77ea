"""GAN-OPC reproduction: mask optimization with lithography-guided GANs.

A full-stack, pure-Python reproduction of "GAN-OPC: Mask Optimization
with Lithography-guided Generative Adversarial Nets" (Yang et al., DAC
2018), including every substrate the paper depends on:

* :mod:`repro.nn` -- numpy autograd + CNN framework,
* :mod:`repro.litho` -- Hopkins coherent-kernel lithography simulation,
* :mod:`repro.geometry` -- layout geometry, raster bridge, design rules,
* :mod:`repro.layoutgen` -- synthetic training-layout library,
* :mod:`repro.ilt` -- inverse lithography engine (baseline + refiner),
* :mod:`repro.opc` -- model-based OPC baseline,
* :mod:`repro.metrics` -- L2 / PV band / EPE / neck / bridge,
* :mod:`repro.core` -- the GAN-OPC networks, training flows and the
  end-to-end inference flow,
* :mod:`repro.bench` -- ICCAD-2013-substitute benchmark suite and the
  experiment harness regenerating the paper\'s tables and figures.
"""

import ctypes

__version__ = "0.1.0"

__all__ = ["nn", "litho", "geometry", "layoutgen", "ilt", "opc",
           "metrics", "core", "bench", "__version__"]

#: glibc ``mallopt`` parameters and the values fixed at import
#: (DESIGN.md §10).  Below the mmap threshold an array is carved from
#: the heap, and up to the trim threshold of free heap top stays mapped,
#: so the arrays one training step frees are reused by the next instead
#: of being unmapped and faulted back in page by page.  Setting either
#: stops glibc from adapting the other, so both are set.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 32 << 20


def _fix_malloc_thresholds() -> None:
    """Fix glibc's malloc thresholds; do nothing where libc has no
    ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_fix_malloc_thresholds()
