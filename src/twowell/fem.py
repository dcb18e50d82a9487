"""Direct minimization of the discretized two-well energy.

P1 triangles on a regular grid (each grid cell split along its lower-left
to upper-right diagonal) make the deformation piecewise affine, so the
surface term is a pure jump measure: the exact total variation of the
gradient is the sum over interior edges of edge length times the Frobenius
norm of the gradient jump.  A Huber smoothing with small parameter delta
makes it differentiable; reported final energies are also recomputed with
the exact (unsmoothed) jump norm.

Descent is limited-memory BFGS with Armijo backtracking on the interior
nodes; boundary nodes are pinned to the identity.  No global-optimality
claim is made, nonconvexity is handled by multi-start.

One evaluation computes the per-triangle gradients F, the well kernel and
the edge jumps once.  Armijo trial points evaluate the energy only; the
accepted point then reuses its F and jumps for the gradient, which chains
the kernel gradient and the jump term back to the nodes with ``np.bincount``
scatters over index arrays the mesh builds once.
:func:`discrete_energy` and :func:`discrete_gradient` wrap the same two
passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .energy import EnergyBreakdown
from .piecewise import PiecewiseDeformation, Rect
from .wells import WellSpec, well_matrices

__all__ = [
    "Mesh",
    "DiscreteField",
    "MinimizeOptions",
    "MinimizeResult",
    "discrete_energy",
    "discrete_gradient",
    "minimize",
    "seed_from_construction",
    "default_huber_delta",
]


class Mesh:
    """Regular nx-by-ny triangulated grid on a rectangle."""

    def __init__(self, nx: int, ny: int, rect: Rect):
        if nx < 2 or ny < 2:
            raise ValueError("mesh needs at least 2 cells per direction")
        self.nx, self.ny, self.rect = nx, ny, rect
        self.hx = rect.width / nx
        self.hy = rect.height / ny
        xs = rect.x0 + self.hx * np.arange(nx + 1)
        ys = rect.y0 + self.hy * np.arange(ny + 1)
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        self.nodes = np.column_stack([X.ravel(), Y.ravel()])
        self.n_nodes = (nx + 1) * (ny + 1)

        def nid(i, j):
            return j * (nx + 1) + i

        I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
        I, J = I.ravel(), J.ravel()
        n00 = nid(I, J)
        n10 = nid(I + 1, J)
        n01 = nid(I, J + 1)
        n11 = nid(I + 1, J + 1)
        lower = np.column_stack([n00, n10, n11])
        upper = np.column_stack([n00, n11, n01])
        self.tris = np.vstack([lower, upper])
        ncell = nx * ny
        self.n_tris = 2 * ncell

        # Constant per-triangle gradient operators, d_x u = cx . u(tri nodes)
        # and d_y u = cy . u(tri nodes).  The lower triangles come first and
        # all share tri_ops[0]; the upper ones share tri_ops[1].  Each is a
        # (vertex, x/y) table.
        ix, iy = 1.0 / self.hx, 1.0 / self.hy
        self.tri_ops = np.array([[[-ix, 0.0], [ix, -iy], [0.0, iy]],
                                 [[0.0, -iy], [ix, 0.0], [-ix, iy]]])
        self.cx = np.repeat(self.tri_ops[:, :, 0], ncell, axis=0)
        self.cy = np.repeat(self.tri_ops[:, :, 1], ncell, axis=0)
        self.tri_area = 0.5 * self.hx * self.hy

        # Interior edges as (left tri, right tri, length), cell by cell in
        # row-major order: the diagonal, then the edge shared with the
        # right-hand cell, then the edge shared with the cell above.
        lo = np.arange(ncell).reshape(ny, nx)
        up = lo + ncell
        pairs = np.empty((ny, nx, 3, 2), dtype=np.intp)
        pairs[:, :, 0] = np.stack([lo, up], axis=-1)
        pairs[:, :-1, 1] = np.stack([lo[:, :-1], up[:, 1:]], axis=-1)
        pairs[:-1, :, 2] = np.stack([up[:-1], lo[1:]], axis=-1)
        present = np.ones((ny, nx, 3), dtype=bool)
        present[:, -1, 1] = False
        present[-1, :, 2] = False
        lengths = np.array([math.hypot(self.hx, self.hy), self.hy, self.hx])
        self.edge_tris = pairs[present]
        self.edge_len = np.broadcast_to(lengths, present.shape)[present]

        # Flat bincount index of the edge term: every left triangle, then
        # every right one.  The nodal scatter indexes by tris.ravel().
        self.edge_sides = self.edge_tris.T.ravel()

        on_bnd = np.zeros(self.n_nodes, dtype=bool)
        ii = self.nodes
        on_bnd |= np.isclose(ii[:, 0], rect.x0) | np.isclose(ii[:, 0], rect.x1)
        on_bnd |= np.isclose(ii[:, 1], rect.y0) | np.isclose(ii[:, 1], rect.y1)
        self.boundary_mask = on_bnd
        self.free_mask = ~on_bnd
        self.n_free = int(np.sum(self.free_mask))

    def gradients(self, values: np.ndarray) -> np.ndarray:
        """Per-triangle deformation gradient, shape (n_tris, 2, 2)."""
        ut = values[self.tris]  # (nt, 3, 2)
        F = np.empty((self.n_tris, 2, 2))
        F[:, :, 0] = np.einsum("tk,tkc->tc", self.cx, ut)
        F[:, :, 1] = np.einsum("tk,tkc->tc", self.cy, ut)
        return F


@dataclass
class DiscreteField:
    """Nodal deformed positions, by default pinned to the identity on the
    boundary (the admissible class of the minimization).  ``pinned=False``
    allows analysis fields such as sampled laminates that violate the
    lateral boundary data; :func:`minimize` requires a pinned field."""

    mesh: Mesh
    values: np.ndarray  # (n_nodes, 2)
    pinned: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.mesh.n_nodes, 2)
        b = self.mesh.boundary_mask
        if self.pinned and not np.allclose(self.values[b], self.mesh.nodes[b],
                                           atol=1e-12):
            raise ValueError("boundary nodes must carry identity values")

    @classmethod
    def identity(cls, mesh: Mesh) -> "DiscreteField":
        return cls(mesh, mesh.nodes.copy())


def default_huber_delta(spec: WellSpec) -> float:
    return 1e-6 * spec.alpha


def _huber(t: np.ndarray, delta: float) -> np.ndarray:
    small = t <= delta
    return np.where(small, t * t / (2.0 * delta), t - 0.5 * delta)


def _edge_jumps(mesh: Mesh, F: np.ndarray):
    J = F[mesh.edge_tris[:, 0]] - F[mesh.edge_tris[:, 1]]
    jn = np.sqrt(np.einsum("eij,eij->e", J, J))
    return J, jn


def _energy_pass(mesh: Mesh, values: np.ndarray, A: np.ndarray, B: np.ndarray,
                 delta: float):
    """The smoothed energy at nodal ``values``: ``(elastic, tv, F, J, jn)``.

    F and the edge jumps J, |J| are returned for :func:`_gradient_pass`, so
    a point whose gradient is needed reuses them."""
    F = mesh.gradients(values)
    d2, _ = kernels.dist2_two_wells(F, A, B)
    elastic = mesh.tri_area * float(np.sum(d2))
    J, jn = _edge_jumps(mesh, F)
    tv = float(np.sum(mesh.edge_len * _huber(jn, delta)))
    return elastic, tv, F, J, jn


def _gradient_pass(mesh: Mesh, F: np.ndarray, J: np.ndarray, jn: np.ndarray,
                   A: np.ndarray, B: np.ndarray, eps: float,
                   delta: float) -> np.ndarray:
    """Nodal gradient of ``elastic + eps * tv`` from the per-triangle F and
    the edge jumps of one point; boundary rows are zero.

    Per-triangle dE/dF is the kernel gradient plus the Huberized jump term,
    added on each edge's left triangle and subtracted on its right one.  It
    is chained to the vertices and summed per node with ``np.bincount``,
    one call per matrix entry or nodal component, each over contiguous
    weights."""
    _, dW = kernels.dist2_two_wells_grad(F, A, B)
    dF = mesh.tri_area * dW
    nt = mesh.n_tris
    if eps != 0.0:
        w = eps * mesh.edge_len * np.where(jn <= delta, 1.0 / delta,
                                           1.0 / np.maximum(jn, 1e-300))
        wJ = np.multiply(J.reshape(-1, 4).T, w, order="C")  # (entry, edge)
        dF4 = dF.reshape(nt, 4)
        for m in range(4):
            dF4[:, m] += np.bincount(mesh.edge_sides,
                                     np.concatenate([wJ[m], -wJ[m]]), nt)
    # Vertex k of triangle t receives dF[t, c, 0] * cx[t, k] +
    # dF[t, c, 1] * cy[t, k] in component c: one matrix product per triangle
    # half, laid out (c, half, t, k).
    contrib = (dF.reshape(2, nt // 2, 2, 2).transpose(2, 0, 1, 3)
               @ mesh.tri_ops.transpose(0, 2, 1))
    grad = np.empty((mesh.n_nodes, 2))
    for c in range(2):
        grad[:, c] = np.bincount(mesh.tris.ravel(), contrib[c].ravel(), mesh.n_nodes)
    grad[mesh.boundary_mask] = 0.0
    return grad


def discrete_energy(field: DiscreteField, spec: WellSpec, eps: float,
                    delta: float | None = None):
    """(elastic, tv, total): per-triangle well distance plus Huberized
    edge-jump total variation; ``total = elastic + eps * tv``."""
    delta = default_huber_delta(spec) if delta is None else delta
    elastic, tv, *_ = _energy_pass(field.mesh, field.values, *well_matrices(spec), delta)
    return elastic, tv, elastic + eps * tv


def exact_tv(field: DiscreteField) -> float:
    """Unsmoothed jump total variation of the piecewise-affine field."""
    _, jn = _edge_jumps(field.mesh, field.mesh.gradients(field.values))
    return float(np.sum(field.mesh.edge_len * jn))


def discrete_gradient(field: DiscreteField, spec: WellSpec, eps: float,
                      delta: float | None = None) -> np.ndarray:
    """Exact gradient of :func:`discrete_energy` w.r.t. free nodal values
    (boundary rows are zero).  The nearest-well branch is differentiated,
    ties toward well A."""
    mesh = field.mesh
    delta = default_huber_delta(spec) if delta is None else delta
    F = mesh.gradients(field.values)
    return _gradient_pass(mesh, F, *_edge_jumps(mesh, F), *well_matrices(spec),
                          eps, delta)


@dataclass(frozen=True)
class MinimizeOptions:
    max_iter: int = 5000
    grad_tol_scale: float = 1e-8   # tolerance = scale * sqrt(free dof count)
    memory: int = 10
    armijo: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 40
    delta_huber: float | None = None


@dataclass
class MinimizeResult:
    field: DiscreteField
    energy_trace: np.ndarray
    final_energy: EnergyBreakdown
    iterations: int
    converged: bool
    gradient_norm: float
    status: str  # "gtol" | "stalled" | "max_iter"
    energy_evals: int  # energy passes: the start and every Armijo trial
    grad_evals: int    # gradient passes: the start and every accepted step
    backtracks: int    # rejected Armijo trials


def minimize(initial: DiscreteField, spec: WellSpec, eps: float,
             options: MinimizeOptions | None = None) -> MinimizeResult:
    """L-BFGS descent of the Huberized discrete energy from a pinned start.

    Stops when the free-node gradient norm drops below the tolerance
    ("gtol"), when backtracking cannot decrease the energy any further
    ("stalled": numerically at a local minimum of the smoothed energy), or
    at the iteration budget ("max_iter")."""
    opts = options or MinimizeOptions()
    if not initial.pinned:
        raise ValueError("minimization requires an identity-pinned start")
    mesh = initial.mesh
    delta = opts.delta_huber if opts.delta_huber is not None else default_huber_delta(spec)
    free = mesh.free_mask
    tol = opts.grad_tol_scale * math.sqrt(2.0 * mesh.n_free)

    A, B = well_matrices(spec)
    values = initial.values.copy()
    energy_evals = grad_evals = backtracks = 0

    def energy_at(x):
        nonlocal energy_evals
        energy_evals += 1
        values[free] = x.reshape(-1, 2)
        return _energy_pass(mesh, values, A, B, delta)

    def gradient_at(point):
        nonlocal grad_evals
        grad_evals += 1
        _, _, F, J, jn = point
        return _gradient_pass(mesh, F, J, jn, A, B, eps, delta)[free].ravel()

    def total(point):
        return point[0] + eps * point[1]

    x = initial.values[free].ravel().copy()
    point = energy_at(x)
    f, g = total(point), gradient_at(point)
    trace = [f]
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    status = "max_iter"
    it = 0
    for it in range(1, opts.max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            status = "gtol"
            break
        # Two-loop recursion.
        q = -g.copy()
        alphas = []
        for s, y in zip(reversed(s_list), reversed(y_list)):
            rho = 1.0 / float(y @ s)
            a = rho * float(s @ q)
            alphas.append((a, rho, s, y))
            q -= a * y
        if y_list:
            y = y_list[-1]
            s = s_list[-1]
            q *= float(s @ y) / float(y @ y)
        for a, rho, s, y in reversed(alphas):
            b = rho * float(y @ q)
            q += (a - b) * s
        d = q
        slope = float(g @ d)
        if slope >= 0.0:
            d = -g
            slope = -float(g @ g)
        # Armijo backtracking: trial points need the energy only.
        t = 1.0
        accepted = False
        for _ in range(opts.max_backtracks):
            x_new = x + t * d
            new_point = energy_at(x_new)
            f_new = total(new_point)
            if f_new <= f + opts.armijo * t * slope:
                accepted = True
                break
            backtracks += 1
            t *= opts.shrink
        if not accepted:
            status = "stalled"
            break
        g_new = gradient_at(new_point)
        s_vec = x_new - x
        y_vec = g_new - g
        if float(s_vec @ y_vec) > 1e-300:
            s_list.append(s_vec)
            y_list.append(y_vec)
            if len(s_list) > opts.memory:
                s_list.pop(0)
                y_list.pop(0)
        x, f, g, point = x_new, f_new, g_new, new_point
        trace.append(f)

    values[free] = x.reshape(-1, 2)
    out_field = DiscreteField(mesh, values)
    breakdown = EnergyBreakdown.combine(point[0], 0.0, exact_tv(out_field), eps, 0.0)
    gnorm = float(np.linalg.norm(g))
    return MinimizeResult(out_field, np.asarray(trace), breakdown, it,
                          status == "gtol", gnorm, status,
                          energy_evals, grad_evals, backtracks)


def seed_from_construction(def_: PiecewiseDeformation, mesh: Mesh):
    """Sample a construction at the mesh nodes.

    Returns ``(field, notes)``; a note flags meshes too coarse for the
    finest oscillation period of the construction (finer than two grid
    cells along the oscillation axis)."""
    d, r = def_.domain, mesh.rect
    if (abs(d.x0 - r.x0) > 1e-12 or abs(d.y0 - r.y0) > 1e-12
            or abs(d.width - r.width) > 1e-12 or abs(d.height - r.height) > 1e-12):
        raise ValueError("construction domain and mesh rectangle differ")
    u, _ = def_.evaluate(mesh.nodes)
    u[mesh.boundary_mask] = mesh.nodes[mesh.boundary_mask]
    notes = []
    period = def_.meta.get("finest_period")
    if period is not None:
        spacing = mesh.hy if def_.meta.get("period_axis", "y") == "y" else mesh.hx
        if period < 2.0 * spacing:
            notes.append(
                f"under-resolved: finest period {period:.3e} spans fewer than "
                f"two mesh cells (spacing {spacing:.3e})")
    return DiscreteField(mesh, u), notes
