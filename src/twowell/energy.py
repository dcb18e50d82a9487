"""Energy of a piecewise-analytic deformation.

``E[u] = int dist^2(Du, K) dx + eps * |D^2 u|(Omega)`` splits into three
exactly computable pieces: the elastic bulk term, the absolutely continuous
part of the total variation (Frobenius norm of the second gradient inside
cells) and the jump part (Frobenius norm of the gradient jump integrated
over the jump curves by arclength).

Cells are integrated on their graph parameterization ``(x, s) -> (x,
(1-s) lower(x) + s upper(x))`` whose Jacobian is ``upper - lower``; panels
are refined adaptively by comparing Gauss rules of order p and 2p.  All
congruent cells (translated copies of one prototype under the same
conjugation) share a single quadrature, multiplied by the instance count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .piecewise import CellProto, PiecewiseDeformation
from .wells import WellSpec, well_matrices

__all__ = ["QuadratureSpec", "EnergyBreakdown", "elastic_energy", "tv_bulk",
           "tv_jump", "total_energy"]


@dataclass(frozen=True)
class QuadratureSpec:
    base_order: int = 8
    max_refinement_depth: int = 12
    rel_tol: float = 1e-8
    line_points: int = 16

    def __post_init__(self):
        if self.base_order < 2:
            raise ValueError("base_order must be at least 2")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split; ``total = elastic + epsilon * (tv_bulk + tv_jump)``.

    ``error_estimate`` sums ``|fine - coarse|`` over every accepted panel of
    the three terms, unweighted by epsilon.  That bounds the error of the
    coarse order-p rule, while the reported values use the order-2p rule, so
    it overstates the error of ``total``, typically by orders of magnitude.
    """

    elastic: float
    tv_bulk: float
    tv_jump: float
    epsilon: float
    total: float
    error_estimate: float
    warnings: tuple[str, ...] = ()

    @staticmethod
    def combine(elastic, tv_bulk, tv_jump, epsilon, error_estimate,
                warnings=()) -> "EnergyBreakdown":
        total = elastic + epsilon * (tv_bulk + tv_jump)
        return EnergyBreakdown(elastic, tv_bulk, tv_jump, epsilon, total,
                               error_estimate, tuple(warnings))


@lru_cache(maxsize=32)
def _gauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]


# Absolute per-unit-measure floor on the Richardson error test.  Integrands
# like dist^2 at an exact well are pure rounding noise (~1e-16 from O(1)
# cancellations); without the floor the refinement loop would chase that
# noise to the depth limit.
_NOISE_FLOOR = 1e-12


class _Accumulator:
    def __init__(self):
        self.value = 0.0
        self.error = 0.0
        self.warnings: list[str] = []


_WAVE_CHUNK = 256  # panels evaluated per batched call


def _integrate(wave_values, root: np.ndarray, order: int, measure: float,
               quad: QuadratureSpec, acc: _Accumulator, what: str) -> float:
    """Adaptive Gauss integral over the box ``root``, a (1, 2d) row of
    (lo, hi) pairs per axis.

    ``wave_values(panels, xs, ws)`` returns one integral per panel for the
    Gauss nodes and weights ``xs, ws`` on [0, 1].  Panels of one refinement
    wave are evaluated in a single batched call; a panel is accepted when the
    order-p / order-2p Richardson difference is below its share of the
    tolerance, otherwise it is halved along every axis (children ordered with
    axis 0 fastest).  ``measure`` scales the absolute noise floor.
    """
    xs1, ws1 = _gauss(order)
    xs2, ws2 = _gauss(2 * order)
    root_size = float(np.prod(root[:, 1::2] - root[:, 0::2]))
    total = 0.0
    panels = root
    depth = 0
    while True:
        coarse = wave_values(panels, xs1, ws1)
        fine = wave_values(panels, xs2, ws2)
        if depth == 0:
            # The root panel's fine value sets the scale of the relative test.
            scale = max(abs(float(fine[0])), 1e-300)
        err = np.abs(fine - coarse)
        frac = np.prod(panels[:, 1::2] - panels[:, 0::2], axis=1) / root_size
        tol = np.maximum(quad.rel_tol * scale * np.maximum(frac, 1e-6),
                         _NOISE_FLOOR * measure * frac)
        done = err <= tol
        if depth >= quad.max_refinement_depth:
            left_over = float(np.sum(err[~done]))
            if left_over > 10.0 * quad.rel_tol * scale:
                acc.warnings.append(f"{what} quadrature hit the refinement limit")
            done = np.ones_like(done)
        total += float(np.sum(fine[done]))
        acc.error += float(np.sum(err[done]))
        rest = panels[~done]
        if not len(rest):
            return total
        lo, hi = rest[:, 0::2], rest[:, 1::2]
        mid = 0.5 * (lo + hi)
        children = []
        for upper in itertools.product((False, True), repeat=lo.shape[1]):
            up = np.array(upper[::-1])
            children.append(np.stack([np.where(up, mid, lo), np.where(up, hi, mid)],
                                     axis=2).reshape(len(rest), -1))
        panels = np.vstack(children)
        depth += 1


def _integrate_cell(proto: CellProto, integrand, quad: QuadratureSpec,
                    acc: _Accumulator) -> float:
    """Integral of ``integrand(x, y)`` over the cell, on its graph
    parameterization ``(x, s)``."""

    def wave_values(panels: np.ndarray, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        out = np.empty(len(panels))
        for lo_i in range(0, len(panels), _WAVE_CHUNK):
            chunk = panels[lo_i:lo_i + _WAVE_CHUNK]
            ax, bx, as_, bs = chunk.T
            x = ax[:, None] + (bx - ax)[:, None] * xs
            s = as_[:, None] + (bs - as_)[:, None] * xs
            lo = proto.lower.value(x)
            hi = proto.upper.value(x)
            y = ((1.0 - s[:, None, :]) * lo[:, :, None]
                 + s[:, None, :] * hi[:, :, None])
            X = np.broadcast_to(x[:, :, None], y.shape)
            vals = integrand(X.ravel(), y.ravel()).reshape(y.shape)
            wx = ws * (bx - ax)[:, None]
            wsn = ws * (bs - as_)[:, None]
            out[lo_i:lo_i + _WAVE_CHUNK] = np.einsum(
                "mi,mj,mij->m", wx, wsn, vals * (hi - lo)[:, :, None])
        return out

    return _integrate(wave_values, np.array([[0.0, proto.width, 0.0, 1.0]]),
                      quad.base_order, abs(proto.area()), quad, acc, "cell")


def _integrate_line(span: float, integrand, quad: QuadratureSpec,
                    acc: _Accumulator) -> float:
    """Integral of ``integrand(t)`` over (0, span)."""

    def wave_values(ab: np.ndarray, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        a, b = ab.T
        t = a[:, None] + (b - a)[:, None] * xs
        vals = integrand(t.ravel()).reshape(t.shape)
        return np.einsum("mi,mi->m", ws * (b - a)[:, None], vals)

    return _integrate(wave_values, np.array([[0.0, span]]), max(quad.line_points, 2),
                      span, quad, acc, "line")


def _elastic_integrand(proto: CellProto, CL, Q, A, B):
    def integrand(x, y):
        du = np.eye(2) + proto.map.grad(x, y)
        F = np.einsum("ab,nbc,cd->nad", CL, du.reshape(-1, 2, 2), Q)
        d2, _ = kernels.dist2_two_wells(F, A, B)
        return d2
    return integrand


def elastic_energy(def_: PiecewiseDeformation, spec: WellSpec,
                   quad: QuadratureSpec | None = None) -> float:
    """Integral of the squared well distance of the gradient."""
    quad = quad or QuadratureSpec()
    acc = _Accumulator()
    return _elastic(def_, spec, quad, acc)


def _elastic(def_, spec, quad, acc):
    A, B = well_matrices(spec)
    total = 0.0
    cache: dict = {}
    for part in def_.parts:
        Q, _, CL, _ = part.folded()
        conj_key = (CL.tobytes(), Q.tobytes())
        for g in part.groups:
            key = (g.proto.key(), conj_key)
            if key not in cache:
                cache[key] = _integrate_cell(
                    g.proto, _elastic_integrand(g.proto, CL, Q, A, B), quad, acc)
            total += g.count * cache[key]
    return total


def tv_bulk(def_: PiecewiseDeformation, quad: QuadratureSpec | None = None) -> float:
    """Absolutely continuous part of |D^2 u|: cell integrals of the
    Frobenius norm of the second gradient (invariant under the isometric
    transform stacks)."""
    quad = quad or QuadratureSpec()
    acc = _Accumulator()
    return _tv_bulk(def_, quad, acc)


def _tv_bulk(def_, quad, acc):
    total = 0.0
    cache: dict = {}
    for part in def_.parts:
        for g in part.groups:
            key = g.proto.key()
            if key not in cache:
                cache[key] = _tv_bulk_cell(g.proto, quad, acc)
            total += g.count * cache[key]
    return total


def _tv_bulk_cell(proto: CellProto, quad: QuadratureSpec, acc: _Accumulator) -> float:
    """Cell integral of |D^2 u|.

    All map families are affine in y at second order (``|D^2 u|^2 =
    (A(x) + B(x) y)^2 + R(x)^2``), so the y direction integrates exactly
    and only a smooth 1D x-integral is left.
    """
    if not any(np.any(v) for v in proto.map.hess_profile(np.linspace(0.0, proto.width, 17))):
        return 0.0

    def integrand(x):
        A, B, R2 = proto.map.hess_profile(x)
        lo = proto.lower.value(x)
        hi = proto.upper.value(x)
        return _column_tv(A, B, R2, lo, hi)

    return _integrate_line(proto.width, integrand, quad, acc)


def _column_tv(A, B, R2, lo, hi):
    """Exact ``int_lo^hi sqrt((A + B y)^2 + R2) dy`` (elementwise)."""
    A, B, R2 = np.broadcast_arrays(np.asarray(A, float), np.asarray(B, float),
                                   np.asarray(R2, float))
    lo = np.broadcast_to(np.asarray(lo, float), A.shape)
    hi = np.broadcast_to(np.asarray(hi, float), A.shape)
    u0 = A + B * lo
    u1 = A + B * hi
    R = np.sqrt(np.maximum(R2, 0.0))
    span = np.abs(B) * (hi - lo)
    scale = np.maximum(np.maximum(np.abs(u0), np.abs(u1)), R) + 1e-300
    linear = span > 1e-7 * scale

    # Midpoint value where B (hi - lo) is negligible (integrand constant).
    um = A + 0.5 * B * (lo + hi)
    const_val = (hi - lo) * np.sqrt(um * um + R2)

    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = np.sqrt(u0 * u0 + R2)
        s1 = np.sqrt(u1 * u1 + R2)
        asinh_term = R2 * (np.arcsinh(np.where(R > 0, u1 / np.where(R > 0, R, 1.0), 0.0))
                           - np.arcsinh(np.where(R > 0, u0 / np.where(R > 0, R, 1.0), 0.0)))
        F = 0.5 * (u1 * s1 - u0 * s0 + np.where(R > 0, asinh_term, 0.0))
        lin_val = F / np.where(linear, B, 1.0)
    return np.where(linear, lin_val, const_val)


def tv_jump(def_: PiecewiseDeformation, quad: QuadratureSpec | None = None) -> float:
    """Jump part of |D^2 u|: arclength integrals of |Du+ - Du-| over the
    jump curves."""
    quad = quad or QuadratureSpec()
    acc = _Accumulator()
    return _tv_jump(def_, quad, acc)


def _tv_jump(def_, quad, acc):
    total = 0.0
    cache: dict = {}
    for part in def_.parts:
        for jg in part.jumps:
            proto = jg.proto
            key = proto.key()
            if key not in cache:
                s1, s2 = jg.sides()

                def integrand(t, proto=proto, s1=s1, s2=s2):
                    jx, jy = proto.points(t)
                    diff = s2.grad(jx, jy) - s1.grad(jx, jy)
                    norm = np.sqrt(np.einsum("nij,nij->n", diff, diff))
                    return norm * proto.weight(t)

                cache[key] = _integrate_line(proto.length_param(), integrand, quad, acc)
            total += jg.count * cache[key]
    return total


def total_energy(def_: PiecewiseDeformation, spec: WellSpec, epsilon: float,
                 quad: QuadratureSpec | None = None) -> EnergyBreakdown:
    """Full breakdown ``elastic + epsilon (tv_bulk + tv_jump)``."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    quad = quad or QuadratureSpec()
    acc = _Accumulator()
    elastic = _elastic(def_, spec, quad, acc)
    bulk = _tv_bulk(def_, quad, acc)
    jump = _tv_jump(def_, quad, acc)
    return EnergyBreakdown.combine(elastic, bulk, jump, epsilon, acc.error,
                                   sorted(set(acc.warnings)))
