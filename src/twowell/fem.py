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

Every pass works on slices of the (ny+1, nx+1) node grid: F is a
difference of shifted node slices, the edge jumps are differences of
shifted F blocks, and the nodal gradient is the adjoint of those stencils,
added back into the node grid with slices.  Armijo trial points evaluate
the energy only; the accepted point keeps its F, jumps and kernel terms,
so its gradient runs no second kernel pass and the reported exact total
variation comes from its jump norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels_np import frobenius2, nearest_well, nearest_well_grad
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
    """Regular nx-by-ny triangulated grid on a rectangle.  Node (i, j) is
    row ``j * (nx + 1) + i``; ``tris`` lists every lower triangle (n00, n10,
    n11), then every upper one (n00, n11, n01), in row-major cell order."""

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

        n00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
        n10, n01, n11 = n00 + 1, n00 + nx + 1, n00 + nx + 2
        self.tris = np.vstack([np.column_stack([n00, n10, n11]),
                               np.column_stack([n00, n11, n01])])
        self.n_tris = 2 * nx * ny
        self.tri_area = 0.5 * self.hx * self.hy

        # Interior edges cell by cell in row-major order: the diagonal, the
        # edge shared with the right-hand cell, the edge shared with the
        # cell above.  edge_mask (ny, nx, 3) marks the slots that exist.
        self.edge_mask = np.ones((ny, nx, 3), dtype=bool)
        self.edge_mask[:, -1, 1] = False
        self.edge_mask[-1, :, 2] = False
        self.edge_kind_len = np.array([math.hypot(self.hx, self.hy), self.hy, self.hx])
        self.edge_len = np.broadcast_to(self.edge_kind_len, self.edge_mask.shape)[self.edge_mask]

        on_bnd = np.zeros((ny + 1, nx + 1), dtype=bool)
        on_bnd[[0, -1], :] = True
        on_bnd[:, [0, -1]] = True
        self.boundary_mask = on_bnd.ravel()
        self.free_mask = ~self.boundary_mask
        self.n_free = int(np.sum(self.free_mask))


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


def _gradients(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Per-triangle gradients: ``F[c, d]`` (2, ny, nx) is du_c/dx_d, lower
    half first, so ``F[c, d].ravel()`` runs in ``mesh.tris`` order.  Written
    ``ix * u10 - ix * u00``, an entry rounds like the stencil product
    ``(-ix, ix, 0) . (u00, u10, u11)``."""
    ny, nx = mesh.ny, mesh.nx
    ix, iy = 1.0 / mesh.hx, 1.0 / mesh.hy
    U = values.reshape(ny + 1, nx + 1, 2).transpose(2, 0, 1)
    u00, u10, u01, u11 = U[:, :-1, :-1], U[:, :-1, 1:], U[:, 1:, :-1], U[:, 1:, 1:]
    F = np.empty((2, 2, 2, ny, nx))
    F[:, 0, 0] = ix * u10 - ix * u00  # lower triangle (n00, n10, n11)
    F[:, 1, 0] = iy * u11 - iy * u10
    F[:, 0, 1] = ix * u11 - ix * u01  # upper triangle (n00, n11, n01)
    F[:, 1, 1] = iy * u01 - iy * u00
    return F


# Edge kinds as (left, right, slot): the two triangles on the (c, d, half,
# row, col) F blocks and the slot in Mesh.edge_mask.  The kinds: the diagonal,
# the edge to the right-hand cell, the edge to the cell above.
_EDGES = ((np.s_[..., 0, :, :], np.s_[..., 1, :, :], np.s_[:, :, 0]),
          (np.s_[..., 0, :, :-1], np.s_[..., 1, :, 1:], np.s_[:, :-1, 1]),
          (np.s_[..., 1, :-1, :], np.s_[..., 0, 1:, :], np.s_[:-1, :, 2]))


def _edge_jumps(mesh: Mesh, F: np.ndarray):
    """Left-minus-right gradient jumps ``J`` of each edge kind, as (2, 2, ...)
    blocks, and their Frobenius norms ``jn`` (ny, nx, 3) in the slots of
    ``mesh.edge_mask`` (0 in the others)."""
    J = [F[left] - F[right] for left, right, _ in _EDGES]
    jn = np.zeros((mesh.ny, mesh.nx, 3))
    for (*_, slot), Jk in zip(_EDGES, J):
        jn[slot] = np.sqrt(frobenius2(Jk.reshape(4, *Jk.shape[2:])))
    return J, jn


def _energy_pass(mesh: Mesh, values: np.ndarray, A: np.ndarray, B: np.ndarray,
                 delta: float):
    """``(elastic, tv, state)`` at nodal ``values``; ``state`` (F, the kernel
    terms, J and |J|) is what :func:`_gradient_pass` reuses.  The Huber
    terms are summed in the edge order of ``mesh.edge_len``."""
    F = _gradients(mesh, values)
    d2, *terms = nearest_well(F.reshape(4, -1), A, B)
    elastic = mesh.tri_area * float(np.sum(d2))
    J, jn = _edge_jumps(mesh, F)
    tv = float(np.sum(mesh.edge_len * _huber(jn[mesh.edge_mask], delta)))
    return elastic, tv, (F, terms, J, jn)


def _gradient_pass(mesh: Mesh, state, A: np.ndarray, B: np.ndarray, eps: float,
                   delta: float) -> np.ndarray:
    """Gradient of ``elastic + eps * tv`` from the ``state`` of
    :func:`_energy_pass`, as a (2, ny+1, nx+1) node grid, boundary included.
    Per-triangle dE/dF (kernel gradient, plus the Huberized jump term on each
    edge's left triangle, minus it on the right one) goes back to the nodes
    through the adjoint of the stencils of :func:`_gradients`."""
    F, terms, J, jn = state
    dW = np.stack(nearest_well_grad(F.reshape(4, -1), *terms, A, B))
    dF = (mesh.tri_area * dW).reshape(F.shape)
    if eps != 0.0:
        w = (eps * mesh.edge_kind_len) * (1.0 / np.maximum(jn, delta))
        for (left, right, slot), Jk in zip(_EDGES, J):
            wJ = Jk * w[slot]
            dF[left] += wJ
            dF[right] -= wJ
    ix, iy = 1.0 / mesh.hx, 1.0 / mesh.hy
    a, b = ix * dF[:, 0, 0], iy * dF[:, 1, 0]  # lower triangle
    c, d = ix * dF[:, 0, 1], iy * dF[:, 1, 1]  # upper triangle
    G = np.zeros((2, mesh.ny + 1, mesh.nx + 1))
    G[:, :-1, :-1] -= a + d
    G[:, :-1, 1:] += a - b
    G[:, 1:, 1:] += b + c
    G[:, 1:, :-1] += d - c
    return G


def discrete_energy(field: DiscreteField, spec: WellSpec, eps: float,
                    delta: float | None = None):
    """(elastic, tv, total): per-triangle well distance plus Huberized
    edge-jump total variation; ``total = elastic + eps * tv``."""
    delta = default_huber_delta(spec) if delta is None else delta
    elastic, tv, _ = _energy_pass(field.mesh, field.values, *well_matrices(spec), delta)
    return elastic, tv, elastic + eps * tv


def _exact_tv(mesh: Mesh, jn: np.ndarray) -> float:
    return float(np.sum(mesh.edge_len * jn[mesh.edge_mask]))


def exact_tv(field: DiscreteField) -> float:
    """Unsmoothed jump total variation of the piecewise-affine field."""
    mesh = field.mesh
    return _exact_tv(mesh, _edge_jumps(mesh, _gradients(mesh, field.values))[1])


def discrete_gradient(field: DiscreteField, spec: WellSpec, eps: float,
                      delta: float | None = None) -> np.ndarray:
    """Exact gradient of :func:`discrete_energy` w.r.t. free nodal values
    (boundary rows are zero).  The nearest-well branch is differentiated,
    ties toward well A."""
    delta = default_huber_delta(spec) if delta is None else delta
    A, B = well_matrices(spec)
    *_, state = _energy_pass(field.mesh, field.values, A, B, delta)
    G = _gradient_pass(field.mesh, state, A, B, eps, delta).reshape(2, -1).T.copy()
    G[field.mesh.boundary_mask] = 0.0
    return G


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
    tol = opts.grad_tol_scale * math.sqrt(2.0 * mesh.n_free)

    A, B = well_matrices(spec)
    values = initial.values.copy()
    # The free nodes are the interior of the node grid, in row-major order.
    interior = values.reshape(mesh.ny + 1, mesh.nx + 1, 2)[1:-1, 1:-1]
    energy_evals = grad_evals = backtracks = 0

    def energy_at(x):
        nonlocal energy_evals
        energy_evals += 1
        interior[...] = x.reshape(interior.shape)
        return _energy_pass(mesh, values, A, B, delta)

    def gradient_at(point):
        nonlocal grad_evals
        grad_evals += 1
        G = _gradient_pass(mesh, point[2], A, B, eps, delta)
        return G[:, 1:-1, 1:-1].transpose(1, 2, 0).ravel()

    def total(point):
        return point[0] + eps * point[1]

    x = interior.ravel().copy()
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

    interior[...] = x.reshape(interior.shape)
    out_field = DiscreteField(mesh, values)
    jn = point[2][3]  # the accepted point's jump norms
    breakdown = EnergyBreakdown.combine(point[0], 0.0, _exact_tv(mesh, jn), eps, 0.0)
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
