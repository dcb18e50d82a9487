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
added back into the node grid with slices.  Each pass writes into a
workspace allocated once per :func:`minimize` call (a fresh one for
:func:`discrete_energy`, :func:`discrete_gradient` and :func:`exact_tv`),
so a pass allocates no array of the mesh's size; NumPy still buffers
strided operands in blocks of at most 8192 elements.  The workspace holds
two points, the accepted one and an Armijo trial, which trade places when
a trial is accepted.  Trial points evaluate the energy only; the accepted
point keeps its F, jumps and the nearest well's kernel terms, so its
gradient runs no second kernel pass and the reported exact total
variation comes from its jump norms.  The L-BFGS pairs live in ring
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


def _gradients(mesh: Mesh, values: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Per-triangle gradients into ``out``: ``F[c, d]`` (2, ny, nx) is
    du_c/dx_d, lower half first, so ``F[c, d].ravel()`` runs in ``mesh.tris``
    order; ``tmp`` is (2, ny+1, nx+1, 2) scratch for the nodal values scaled
    by 1/hx and 1/hy.  Written ``ix * u10 - ix * u00``, an entry rounds like
    the stencil product ``(-ix, ix, 0) . (u00, u10, u11)``."""
    ny, nx = mesh.ny, mesh.nx
    U = values.reshape(ny + 1, nx + 1, 2)
    X, Y = (np.multiply(U, s, out=t).transpose(2, 0, 1)
            for s, t in ((1.0 / mesh.hx, tmp[0]), (1.0 / mesh.hy, tmp[1])))
    # lower triangle (n00, n10, n11), then upper triangle (n00, n11, n01)
    np.subtract(X[:, :-1, 1:], X[:, :-1, :-1], out=out[:, 0, 0])
    np.subtract(Y[:, 1:, 1:], Y[:, :-1, 1:], out=out[:, 1, 0])
    np.subtract(X[:, 1:, 1:], X[:, 1:, :-1], out=out[:, 0, 1])
    np.subtract(Y[:, 1:, :-1], Y[:, :-1, :-1], out=out[:, 1, 1])
    return out


# Edge kinds as (left, right, slot): the two triangles on the (c, d, half,
# row, col) F blocks and the slot in Mesh.edge_mask.  The kinds: the diagonal,
# the edge to the right-hand cell, the edge to the cell above.
_EDGES = ((np.s_[..., 0, :, :], np.s_[..., 1, :, :], np.s_[:, :, 0]),
          (np.s_[..., 0, :, :-1], np.s_[..., 1, :, 1:], np.s_[:, :-1, 1]),
          (np.s_[..., 1, :-1, :], np.s_[..., 0, 1:, :], np.s_[:-1, :, 2]))


class _Point:
    """One point of the passes: F, the nearest well and its kernel terms
    ``(p, q, r)``, the left-minus-right gradient jumps ``J`` of each edge kind
    as (2, 2, ...) blocks, their Frobenius norms ``jn`` (ny, nx, 3) in the
    slots of ``mesh.edge_mask`` (0 in the others), and the energy terms."""

    def __init__(self, mesh: Mesh):
        nt = mesh.n_tris
        self.F = np.empty((2, 2, 2, mesh.ny, mesh.nx))
        self.which = np.empty(nt, dtype=bool)
        self.pqr = np.empty((3, nt))
        self.J = [np.empty(self.F[left].shape) for left, _, _ in _EDGES]
        self.jn = np.zeros((mesh.ny, mesh.nx, 3))
        self.elastic = self.tv = 0.0


class _Workspace:
    """Every array of the passes on one mesh, allocated once: two points (the
    accepted one and an Armijo trial), the kernel scratch, the edge values
    and their index in the (ny, nx, 3) slots, the Huber weights, dF, the
    node-grid gradient and one block of scratch for two scaled copies of the
    node grid (stencil), jump norms, weighted jumps or the scatter."""

    def __init__(self, mesh: Mesh):
        self.points = (_Point(mesh), _Point(mesh))
        self.kernel = kernel_work(mesh.n_tris)
        # jn.ravel()[edge_index] is jn[mesh.edge_mask], in edge_len order.
        self.edge_index = np.flatnonzero(mesh.edge_mask)
        self.edges = np.empty((2, self.edge_index.size))
        self.small = np.empty(self.edge_index.size, dtype=bool)
        self.w = np.empty((mesh.ny, mesh.nx, 3))
        self.dF = np.empty((2, 2, 2, mesh.ny, mesh.nx))
        self.G = np.empty((2, mesh.ny + 1, mesh.nx + 1))
        self._cells = np.empty(4 * (mesh.ny + 1) * (mesh.nx + 1))

    def scratch(self, shape, k: int = 0) -> np.ndarray:
        """The ``k``-th block of ``shape`` in the cell-sized scratch."""
        n = math.prod(shape)
        return self._cells[k * n:(k + 1) * n].reshape(shape)


def _edge_jumps(mesh: Mesh, F: np.ndarray, pt: _Point, ws: _Workspace) -> None:
    """The jumps ``pt.J`` and their norms ``pt.jn`` of the gradients ``F``."""
    for (left, right, slot), Jk in zip(_EDGES, pt.J):
        np.subtract(F[left], F[right], out=Jk)
        shape = Jk.shape[2:]
        f2 = frobenius2(Jk.reshape(4, *shape), ws.scratch(shape, 0),
                        (ws.scratch(shape, 1), ws.scratch(shape, 2)))
        np.sqrt(f2, out=pt.jn[slot])


def _energy_pass(mesh: Mesh, values: np.ndarray, A: np.ndarray, B: np.ndarray,
                 delta: float, ws: _Workspace, pt: _Point) -> None:
    """Evaluate nodal ``values`` into ``pt``: F, the kernel terms, J and |J|,
    which :func:`_gradient_pass` reuses, and ``pt.elastic`` and ``pt.tv``.
    The Huber terms are summed in the edge order of ``mesh.edge_len``; the
    quadratic branch is written only on the edges with |J| <= delta."""
    F = _gradients(mesh, values, pt.F, ws.scratch((2, mesh.ny + 1, mesh.nx + 1, 2)))
    d2, _, _ = nearest_well(F.reshape(4, -1), A, B, out=(pt.which, pt.pqr), work=ws.kernel)
    pt.elastic = mesh.tri_area * float(np.sum(d2))
    _edge_jumps(mesh, F, pt, ws)
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
    :func:`_energy_pass`, as the (2, ny+1, nx+1) node grid ``ws.G``, boundary
    included.  Per-triangle dE/dF (kernel gradient, plus the Huberized jump
    term on each edge's left triangle, minus it on the right one) goes back
    to the nodes through the adjoint of the stencils of :func:`_gradients`."""
    dF = ws.dF
    nearest_well_grad(pt.F.reshape(4, -1), pt.which, pt.pqr, A, B,
                      out=dF.reshape(4, -1), work=ws.kernel)
    dF *= mesh.tri_area
    if eps != 0.0:
        w = np.maximum(pt.jn, delta, out=ws.w)
        np.multiply(eps * mesh.edge_kind_len, np.divide(1.0, w, out=w), out=w)
        for (left, right, slot), Jk in zip(_EDGES, pt.J):
            wJ = np.multiply(Jk, w[slot], out=ws.scratch(Jk.shape))
            dF[left] += wJ
            dF[right] -= wJ
    dF[:, 0] *= 1.0 / mesh.hx
    dF[:, 1] *= 1.0 / mesh.hy
    a, b = dF[:, 0, 0], dF[:, 1, 0]  # lower triangle
    c, d = dF[:, 0, 1], dF[:, 1, 1]  # upper triangle
    G, t = ws.G, ws.scratch(a.shape)
    G.fill(0.0)
    G[:, :-1, :-1] -= np.add(a, d, out=t)
    G[:, :-1, 1:] += np.subtract(a, b, out=t)
    G[:, 1:, 1:] += np.add(b, c, out=t)
    G[:, 1:, :-1] += np.subtract(d, c, out=t)
    return G


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
    F = _gradients(mesh, field.values, pt.F, ws.scratch((2, mesh.ny + 1, mesh.nx + 1, 2)))
    _edge_jumps(mesh, F, pt, ws)
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
    # The L-BFGS pairs (s, y) and their rho = 1/(y.s) in a ring of memory + 1
    # slots: ``head`` is the free slot a new pair is written to before its
    # curvature test, the ``count`` stored pairs sit just before it.
    slots = opts.memory + 1
    S, Y = np.empty((2, slots, interior.size))
    rho, alpha = np.empty((2, slots))
    head = count = 0
    scale = 1.0  # s.y / y.y of the newest pair
    status = "max_iter"
    it = 0
    for it in range(1, opts.max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            status = "gtol"
            break
        # Two-loop recursion, newest pair first.
        np.negative(g, out=q)
        order = [(head - 1 - j) % slots for j in range(count)]
        for k in order:
            alpha[k] = rho[k] * float(S[k] @ q)
            q -= np.multiply(Y[k], alpha[k], out=tmp)
        if count:
            q *= scale
        for k in reversed(order):
            b = rho[k] * float(Y[k] @ q)
            q += np.multiply(S[k], alpha[k] - b, out=tmp)
        slope = float(g @ q)
        if slope >= 0.0:
            np.negative(g, out=q)
            slope = -float(g @ g)
        # Armijo backtracking: trial points need the energy only.
        t = 1.0
        accepted = False
        for _ in range(opts.max_backtracks):
            np.add(x, np.multiply(q, t, out=x_new), out=x_new)
            f_new = energy_at(x_new, trial)
            if f_new <= f + opts.armijo * t * slope:
                accepted = True
                break
            backtracks += 1
            t *= opts.shrink
        if not accepted:
            status = "stalled"
            break
        gradient_at(trial, g_new)
        s, y = np.subtract(x_new, x, out=S[head]), np.subtract(g_new, g, out=Y[head])
        sy = float(s @ y)
        if sy > 1e-300:
            rho[head] = 1.0 / float(y @ s)
            scale = sy / float(y @ y)
            head = (head + 1) % slots
            count = min(count + 1, opts.memory)
        x, x_new, g, g_new, point, trial = x_new, x, g_new, g, trial, point
        f = f_new
        trace.append(f)

    interior[...] = x.reshape(interior.shape)
    out_field = DiscreteField(mesh, values)
    breakdown = EnergyBreakdown.combine(point.elastic, 0.0, _exact_tv(mesh, point.jn, ws),
                                        eps, 0.0)
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
