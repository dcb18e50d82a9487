"""One-dimensional profiles shared by the microstructure constructions.

Two ingredients appear in every explicit deformation:

* the unit sawtooth ``Z(t) = dist(t + 1/4, Z) - 1/4``, a 1-periodic zigzag
  with slope +-1 and zeros on the half-integers, rescaled as
  ``Z_h(t) = h Z(t/h)``; it prescribes the laminate traces on internal
  stripe lines, and
* an interpolation ramp ``g: [0,1] -> [0,1]`` with ``g(0)=0``, ``g(1)=1``
  used to bend stripe boundaries.  The default is the quintic
  ``10 t^3 - 15 t^4 + 6 t^5`` whose first two derivatives vanish at both
  endpoints (needed wherever g' enters the deformation itself); a plain
  linear ramp is available for the constructions that only use g values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sawtooth", "smooth_step", "linear_step", "step_profile", "step_value",
           "step_slope", "flat_ends"]


def sawtooth(h: float, t):
    """h-periodic sawtooth ``Z_h(t) = h Z(t/h)`` with slope +-1 and range [-h/4, h/4]."""
    if h <= 0:
        raise ValueError(f"sawtooth period must be positive, got {h}")
    u = np.asarray(t, dtype=float) / h + 0.25
    dist = np.abs(u - np.round(u))
    return h * (dist - 0.25)


def smooth_step(t):
    """Quintic ramp ``10 t^3 - 15 t^4 + 6 t^5`` and its first three derivatives.

    Returns ``(g, g', g'', g''')`` evaluated elementwise; the first two
    derivatives vanish at t = 0 and t = 1.
    """
    t = np.asarray(t, dtype=float)
    d2 = ((120.0 * t - 180.0) * t + 60.0) * t
    d3 = (360.0 * t - 360.0) * t + 60.0
    return _quintic(t), _quintic_slope(t), d2, d3


def _quintic(t):
    return ((6.0 * t - 15.0) * t + 10.0) * t * t * t


def _quintic_slope(t):
    return ((30.0 * t - 60.0) * t + 30.0) * t * t


def linear_step(t):
    """Linear ramp ``t`` in the same ``(g, g', g'', g''')`` convention."""
    t = np.asarray(t, dtype=float)
    one = np.ones_like(t)
    zero = np.zeros_like(t)
    return t, one, zero, zero


def step_profile(kind: str):
    """Return the ramp function for ``kind`` in {"quintic", "linear"}."""
    if kind == "quintic":
        return smooth_step
    if kind == "linear":
        return linear_step
    raise ValueError(f"unknown ramp kind {kind!r}")


def flat_ends(kind: str) -> bool:
    """Whether g' and g'' of the ramp ``kind`` vanish at t = 0 and t = 1.

    Then a piece following the ramp has the gradient of its flat neighbours
    on the vertical edges of its cell, and cells that expose the same
    laminate there join with a continuous gradient.
    """
    return step_profile(kind) is smooth_step


def step_value(kind: str, t):
    """The ramp value g alone, as :func:`step_profile` computes it."""
    t = np.asarray(t, dtype=float)
    return _quintic(t) if step_profile(kind) is smooth_step else t


def step_slope(kind: str, t):
    """The ramp slope g' alone, as :func:`step_profile` computes it."""
    t = np.asarray(t, dtype=float)
    return _quintic_slope(t) if step_profile(kind) is smooth_step else np.ones_like(t)
