"""The batched well kernel the quadrature calls.

The NumPy functions of :mod:`twowell._kernels_np` are the only backend.
This module stays so that callers look them up here at call time
(``kernels.dist2_two_wells``): the benchmark harness and the tests replace
these attributes with counting or timing wrappers.
"""

from __future__ import annotations

from ._kernels_np import dist2_two_wells, dist2_two_wells_grad

__all__ = ["dist2_two_wells", "dist2_two_wells_grad", "backend_name"]


def backend_name() -> str:
    return "numpy"
