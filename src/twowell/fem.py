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

Every pass works on contiguous rows.  The cell blocks have the node row
length W = nx + 1, one pad column past the nx cells of each row, so cell
(j, i) and node (j, i) share the flat index j * W + i: F is a difference of
node rows at the flat offsets 0, 1, W and W + 1, the edge jumps are
differences of F rows at the offsets 0, 1 and W, and the nodal gradient is
the adjoint of those stencils, added back into the node rows at the same
offsets.  The pad column never reaches a sum: d2 is summed without it, the
jump norms are gathered edge by edge, and dF is 0 on it before the scatter.
Each pass writes into a workspace allocated once per :func:`minimize` call
(a fresh one for :func:`discrete_energy`, :func:`discrete_gradient` and
:func:`exact_tv`), so a pass allocates no array of the mesh's size.  The
workspace holds two points, the accepted one and an Armijo trial, which
trade places when a trial is accepted.  Trial points evaluate the energy
only; the accepted point keeps its F, jumps and the nearest well's kernel
terms, so its gradient runs no second kernel pass and the reported exact
total variation comes from its jump norms.  The L-BFGS pairs live in ring
buffers with their rho = 1/(y.s), computed once when a pair is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels_np import frobenius2, kernel_work, nearest_well, nearest_well_grad
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
    """Nodal deformed positions.  :func:`minimize` requires the identity on
    the boundary (the admissible class of the minimization); analysis
    fields such as sampled laminates need not satisfy it."""

    mesh: Mesh
    values: np.ndarray  # (n_nodes, 2)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.mesh.n_nodes, 2)

    @classmethod
    def identity(cls, mesh: Mesh) -> "DiscreteField":
        return cls(mesh, mesh.nodes.copy())


def default_huber_delta(spec: WellSpec) -> float:
    return 1e-6 * spec.alpha


def _gradients(mesh: Mesh, values: np.ndarray, out: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Per-triangle gradients into ``out`` (2, 2, 2, ny * W): ``F[c, d, half,
    k]`` is du_c/dx_d on the cell with flat index k = j * W + i, W = nx + 1,
    lower half first, so the cells with i < nx run in ``mesh.tris`` order and
    i = nx is the pad column.  ``planes`` (2, 2, n_nodes + 1) receives the
    node grid scaled by 1/hx and 1/hy, one plane per component, and a 0 past
    its last node.  Cell k has the nodes n00 = k, n10 = k + 1, n01 = k + W
    and n11 = k + W + 1.  Written ``ix * u10 - ix * u00``, an entry rounds
    like the stencil product ``(-ix, ix, 0) . (u00, u10, u11)``."""
    n, W, L = mesh.n_nodes, mesh.nx + 1, out.shape[-1]
    X, Y = planes
    np.multiply(values.T, 1.0 / mesh.hx, out=X[:, :n])
    np.multiply(values.T, 1.0 / mesh.hy, out=Y[:, :n])
    planes[..., n] = 0.0
    # lower triangle (n00, n10, n11), then upper triangle (n00, n11, n01)
    np.subtract(X[:, 1:L + 1], X[:, :L], out=out[:, 0, 0])
    np.subtract(Y[:, W + 1:W + 1 + L], Y[:, 1:L + 1], out=out[:, 1, 0])
    np.subtract(X[:, W + 1:W + 1 + L], X[:, W:W + L], out=out[:, 0, 1])
    np.subtract(Y[:, W:W + L], Y[:, :L], out=out[:, 1, 1])
    return out


class _Point:
    """One point of the passes: F, the nearest well and its kernel terms
    ``(p, q, r)``, the left-minus-right gradient jumps ``J`` (3, 2, 2, ny * W)
    of the edge kinds, their Frobenius norms ``jn`` (3, ny * W), and the
    energy terms.  Kind k's jumps fill the first ny * W - offset entries of
    its rows; ``jn`` is 0 past them."""

    def __init__(self, ws: "_Workspace"):
        L = ws.cells
        self.F = np.empty((2, 2, 2, L))
        self.which = np.empty(2 * L, dtype=bool)
        self.pqr = np.empty((3, 2 * L))
        self.J = np.empty((3, 2, 2, L))
        self.jn = np.zeros((3, L))
        self.elastic = self.tv = 0.0


class _Workspace:
    """Every array of the passes on one mesh, allocated once: two points (the
    accepted one and an Armijo trial), the kernel scratch, the edge values
    and their index in ``jn``, the Huber weights, dF, the node-grid gradient
    and one block of scratch (the scaled node planes, jump norms, weighted
    jumps, the scatter terms, d2 without its pad column).

    Edge kinds are (left half, right half, offset): an edge joins the left
    triangle of cell k to the right triangle of cell k + offset.  The kinds:
    the diagonal, the edge to the right-hand cell, the edge to the cell
    above."""

    def __init__(self, mesh: Mesh):
        W = mesh.nx + 1
        self.cells = L = mesh.ny * W
        self.kinds = ((0, 1, 0), (0, 1, 1), (1, 0, W))
        self.points = (_Point(self), _Point(self))
        self.kernel = kernel_work(2 * L)
        # jn.ravel()[edge_index] is the jump norm of every interior edge, in
        # edge_len order: slot s of cell (j, i) is jn[s, j * W + i].
        slots = np.arange(3 * L).reshape(3, mesh.ny, W)[:, :, :mesh.nx]
        self.edge_index = slots.transpose(1, 2, 0)[mesh.edge_mask]
        self.edges = np.empty((2, self.edge_index.size))
        self.small = np.empty(self.edge_index.size, dtype=bool)
        self.w = np.empty((3, L))
        self.dF = np.empty((2, 2, 2, L))
        self.G = np.empty((2, mesh.n_nodes + 1))
        self._cells = np.empty(4 * (mesh.n_nodes + 1))

    def scratch(self, shape, k: int = 0) -> np.ndarray:
        """The ``k``-th block of ``shape`` in the scratch."""
        n = math.prod(shape)
        return self._cells[k * n:(k + 1) * n].reshape(shape)


def _edge_jumps(F: np.ndarray, pt: _Point, ws: _Workspace) -> None:
    """The jumps ``pt.J`` and their norms ``pt.jn`` of the gradients ``F``."""
    for (left, right, off), Jk, jn in zip(ws.kinds, pt.J, pt.jn):
        n = ws.cells - off
        Jk = np.subtract(F[:, :, left, :n], F[:, :, right, off:], out=Jk[..., :n])
        f2 = frobenius2(Jk.reshape(4, n), ws.scratch((n,), 0),
                        (ws.scratch((n,), 1), ws.scratch((n,), 2)))
        np.sqrt(f2, out=jn[:n])


def _energy_pass(mesh: Mesh, values: np.ndarray, A: np.ndarray, B: np.ndarray,
                 delta: float, ws: _Workspace, pt: _Point) -> None:
    """Evaluate nodal ``values`` into ``pt``: F, the kernel terms, J and |J|,
    which :func:`_gradient_pass` reuses, and ``pt.elastic`` and ``pt.tv``.
    d2 is summed without its pad column, in ``mesh.tris`` order, and the
    Huber terms in the edge order of ``mesh.edge_len``; the quadratic branch
    is written only on the edges with |J| <= delta."""
    F = _gradients(mesh, values, pt.F, ws.scratch((2, 2, mesh.n_nodes + 1)))
    d2, _, _ = nearest_well(F.reshape(4, -1), A, B, out=(pt.which, pt.pqr), work=ws.kernel)
    cells = ws.scratch((mesh.n_tris,))
    np.copyto(cells.reshape(2, mesh.ny, mesh.nx), d2.reshape(2, mesh.ny, -1)[..., :mesh.nx])
    pt.elastic = mesh.tri_area * float(np.sum(cells))
    _edge_jumps(F, pt, ws)
    t, h = ws.edges
    np.take(pt.jn.ravel(), ws.edge_index, out=t, mode="clip")
    np.subtract(t, 0.5 * delta, out=h)
    small = np.flatnonzero(np.less_equal(t, delta, out=ws.small))
    if small.size:
        ts = t[small]
        h[small] = ts * ts / (2.0 * delta)
    pt.tv = float(np.sum(np.multiply(mesh.edge_len, h, out=h)))


def _gradient_pass(mesh: Mesh, pt: _Point, A: np.ndarray, B: np.ndarray, eps: float,
                   delta: float, ws: _Workspace) -> np.ndarray:
    """Gradient of ``elastic + eps * tv`` at the point ``pt`` of
    :func:`_energy_pass`, as the (2, ny+1, nx+1) node grid, boundary
    included.  Per-triangle dE/dF (kernel gradient, plus the Huberized jump
    term on each edge's left triangle, minus it on the right one) goes back
    to the nodes through the adjoint of the stencils of :func:`_gradients`.
    The weighted jumps of the right-hand edges that touch the pad column and
    dF on the pad column are set to 0 first, so the pad adds only +0 to the
    nodes."""
    nx, ny, W, L = mesh.nx, mesh.ny, mesh.nx + 1, ws.cells
    dF = ws.dF
    nearest_well_grad(pt.F.reshape(4, -1), pt.which, pt.pqr, A, B,
                      out=dF.reshape(4, -1), work=ws.kernel)
    dF *= mesh.tri_area
    if eps != 0.0:
        w = np.maximum(pt.jn, delta, out=ws.w)
        np.multiply((eps * mesh.edge_kind_len)[:, None], np.divide(1.0, w, out=w), out=w)
        wJ = ws.scratch((2, 2, L))
        for (left, right, off), Jk, wk in zip(ws.kinds, pt.J, w):
            n = L - off
            np.multiply(Jk[..., :n], wk[:n], out=wJ[..., :n])
            if off == 1:
                wJ.reshape(2, 2, ny, W)[..., nx - 1:] = 0.0
            dF[:, :, left, :n] += wJ[..., :n]
            dF[:, :, right, off:] -= wJ[..., :n]
    dF.reshape(2, 2, 2, ny, W)[..., nx] = 0.0
    dF[:, 0] *= 1.0 / mesh.hx
    dF[:, 1] *= 1.0 / mesh.hy
    a, b = dF[:, 0, 0], dF[:, 1, 0]  # lower triangle
    c, d = dF[:, 0, 1], dF[:, 1, 1]  # upper triangle
    G, t = ws.G, ws.scratch(a.shape)
    G.fill(0.0)
    G[:, :L] -= np.add(a, d, out=t)
    G[:, 1:L + 1] += np.subtract(a, b, out=t)
    G[:, W + 1:W + 1 + L] += np.add(b, c, out=t)
    G[:, W:W + L] += np.subtract(d, c, out=t)
    return G[:, :mesh.n_nodes].reshape(2, ny + 1, W)


def discrete_energy(field: DiscreteField, spec: WellSpec, eps: float,
                    delta: float | None = None):
    """(elastic, tv, total): per-triangle well distance plus Huberized
    edge-jump total variation; ``total = elastic + eps * tv``."""
    delta = default_huber_delta(spec) if delta is None else delta
    ws = _Workspace(field.mesh)
    pt = ws.points[0]
    _energy_pass(field.mesh, field.values, *well_matrices(spec), delta, ws, pt)
    return pt.elastic, pt.tv, pt.elastic + eps * pt.tv


def _exact_tv(mesh: Mesh, jn: np.ndarray, ws: _Workspace) -> float:
    t = np.take(jn.ravel(), ws.edge_index, out=ws.edges[0], mode="clip")
    return float(np.sum(np.multiply(mesh.edge_len, t, out=t)))


def exact_tv(field: DiscreteField) -> float:
    """Unsmoothed jump total variation of the piecewise-affine field."""
    mesh = field.mesh
    ws = _Workspace(mesh)
    pt = ws.points[0]
    F = _gradients(mesh, field.values, pt.F, ws.scratch((2, 2, mesh.n_nodes + 1)))
    _edge_jumps(F, pt, ws)
    return _exact_tv(mesh, pt.jn, ws)


def discrete_gradient(field: DiscreteField, spec: WellSpec, eps: float,
                      delta: float | None = None) -> np.ndarray:
    """Exact gradient of :func:`discrete_energy` w.r.t. free nodal values
    (boundary rows are zero).  The nearest-well branch is differentiated,
    ties toward well A."""
    delta = default_huber_delta(spec) if delta is None else delta
    A, B = well_matrices(spec)
    ws = _Workspace(field.mesh)
    pt = ws.points[0]
    _energy_pass(field.mesh, field.values, A, B, delta, ws, pt)
    G = _gradient_pass(field.mesh, pt, A, B, eps, delta, ws).reshape(2, -1).T.copy()
    G[field.mesh.boundary_mask] = 0.0
    return G


# The L-BFGS constants: gradient tolerance GRAD_TOL_SCALE * sqrt(free dof
# count), MEMORY stored pairs, the Armijo sufficient-decrease factor, the
# step SHRINK per rejected trial and at most MAX_BACKTRACKS trials a step.
GRAD_TOL_SCALE = 1e-8
MEMORY = 10
ARMIJO = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 40


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` of two vectors, summed by ``np.einsum`` in an order that does
    not depend on the BLAS thread count (``@`` calls BLAS ``ddot``, which
    splits long sums across threads)."""
    return float(np.einsum("i,i->", a, b))


@dataclass(frozen=True)
class MinimizeOptions:
    max_iter: int = 5000
    delta_huber: float | None = None


@dataclass
class MinimizeResult:
    field: DiscreteField
    energy_trace: np.ndarray
    final_energy: EnergyBreakdown
    iterations: int
    gradient_norm: float
    status: str  # "gtol" | "stalled" | "max_iter"
    energy_evals: int  # energy passes: the start and every Armijo trial
    grad_evals: int    # gradient passes: the start and every accepted step
    backtracks: int    # rejected Armijo trials


def minimize(initial: DiscreteField, spec: WellSpec, eps: float,
             options: MinimizeOptions | None = None) -> MinimizeResult:
    """L-BFGS descent of the Huberized discrete energy from a start that is
    the identity on the boundary.

    Stops when the free-node gradient norm drops below the tolerance
    ("gtol"), when backtracking cannot decrease the energy any further
    ("stalled": numerically at a local minimum of the smoothed energy), or
    at the iteration budget ("max_iter")."""
    opts = options or MinimizeOptions()
    mesh = initial.mesh
    bnd = mesh.boundary_mask
    if not np.allclose(initial.values[bnd], mesh.nodes[bnd], atol=1e-12):
        raise ValueError("boundary nodes must carry identity values")
    delta = opts.delta_huber if opts.delta_huber is not None else default_huber_delta(spec)
    tol = GRAD_TOL_SCALE * math.sqrt(2.0 * mesh.n_free)

    A, B = well_matrices(spec)
    values = initial.values.copy()
    # The free nodes are the interior of the node grid, in row-major order.
    interior = values.reshape(mesh.ny + 1, mesh.nx + 1, 2)[1:-1, 1:-1]
    ws = _Workspace(mesh)
    point, trial = ws.points
    energy_evals = grad_evals = backtracks = 0

    def energy_at(x, pt):
        nonlocal energy_evals
        energy_evals += 1
        interior[...] = x.reshape(interior.shape)
        _energy_pass(mesh, values, A, B, delta, ws, pt)
        return pt.elastic + eps * pt.tv

    def gradient_at(pt, out):
        nonlocal grad_evals
        grad_evals += 1
        G = _gradient_pass(mesh, pt, A, B, eps, delta, ws)
        np.copyto(out.reshape(interior.shape), G[:, 1:-1, 1:-1].transpose(1, 2, 0))

    # The iterate, the trial point, their gradients, the direction and scratch.
    x, x_new, g, g_new, q, tmp = np.empty((6, interior.size))
    np.copyto(x.reshape(interior.shape), interior)
    f = energy_at(x, point)
    gradient_at(point, g)
    trace = [f]
    # The L-BFGS pairs (s, y) and their rho = 1/(y.s) in a ring of MEMORY + 1
    # slots: ``head`` is the free slot a new pair is written to before its
    # curvature test, the ``count`` stored pairs sit just before it.
    slots = MEMORY + 1
    S, Y = np.empty((2, slots, interior.size))
    rho, alpha = np.empty((2, slots))
    head = count = 0
    scale = 1.0  # s.y / y.y of the newest pair
    status = "max_iter"
    it = 0
    for it in range(1, opts.max_iter + 1):
        gnorm = math.sqrt(_dot(g, g))
        if gnorm <= tol:
            status = "gtol"
            break
        # Two-loop recursion, newest pair first.
        np.negative(g, out=q)
        order = [(head - 1 - j) % slots for j in range(count)]
        for k in order:
            alpha[k] = rho[k] * _dot(S[k], q)
            q -= np.multiply(Y[k], alpha[k], out=tmp)
        if count:
            q *= scale
        for k in reversed(order):
            b = rho[k] * _dot(Y[k], q)
            q += np.multiply(S[k], alpha[k] - b, out=tmp)
        slope = _dot(g, q)
        if slope >= 0.0:
            np.negative(g, out=q)
            slope = -_dot(g, g)
        # Armijo backtracking: trial points need the energy only.
        t = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            np.add(x, np.multiply(q, t, out=x_new), out=x_new)
            f_new = energy_at(x_new, trial)
            if f_new <= f + ARMIJO * t * slope:
                accepted = True
                break
            backtracks += 1
            t *= SHRINK
        if not accepted:
            status = "stalled"
            break
        gradient_at(trial, g_new)
        s, y = np.subtract(x_new, x, out=S[head]), np.subtract(g_new, g, out=Y[head])
        sy = _dot(s, y)
        if sy > 1e-300:
            rho[head] = 1.0 / sy
            scale = sy / _dot(y, y)
            head = (head + 1) % slots
            count = min(count + 1, MEMORY)
        x, x_new, g, g_new, point, trial = x_new, x, g_new, g, trial, point
        f = f_new
        trace.append(f)

    interior[...] = x.reshape(interior.shape)
    out_field = DiscreteField(mesh, values)
    breakdown = EnergyBreakdown.combine(point.elastic, 0.0, _exact_tv(mesh, point.jn, ws),
                                        eps, 0.0)
    gnorm = math.sqrt(_dot(g, g))
    return MinimizeResult(out_field, np.asarray(trace), breakdown, it, gnorm, status,
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
