"""The P1 passes, the L-BFGS loop and the entry-array well kernel as they
were before the minimizer evaluated into a reused workspace, kept as
oracles: every pass allocates its temporaries afresh, the kernel multiplies
by every well entry (zeros and ones included) and selects with
``np.where``, and the two-loop recursion recomputes rho = 1/(y.s) for every
stored pair on every iteration.  Its dot products and norms are summed by
``np.einsum``, as in :mod:`twowell.fem`.  Not collected by pytest."""

from __future__ import annotations

import math

import numpy as np

from twowell import fem
from twowell.energy import EnergyBreakdown
from twowell.fem import DiscreteField, Mesh, MinimizeOptions, MinimizeResult, default_huber_delta
from twowell.wells import WellSpec, well_matrices


def frobenius2(f):
    """Squared Frobenius norm of the matrices with entries ``f``."""
    f00, f01, f10, f11 = f
    return (f00 * f00 + f10 * f10) + (f01 * f01 + f11 * f11)


def _orbit_terms(f, f2, G: np.ndarray):
    """``(d2, p, q, r)`` of F against the orbit SO(2)G: p = F:G, q = F:JG
    with J the rotation by pi/2, r = sqrt(p*p + q*q) and d2 = |F|^2 + |G|^2
    - 2r (clipped at 0).  ``f2`` is |F|^2."""
    f00, f01, f10, f11 = f
    (g00, g01), (g10, g11) = G.tolist()
    p = (f00 * g00 + f10 * g10) + (f01 * g01 + f11 * g11)
    q = (f00 * -g10 + f10 * g00) + (f01 * -g11 + f11 * g01)  # JG = [[-g10, -g11], [g00, g01]]
    r = np.sqrt(p * p + q * q)
    d2 = f2 + float(np.sum(G * G)) - 2.0 * r
    np.maximum(d2, 0.0 * r, out=d2)  # NaN where r overflows
    return d2, p, q, r


def nearest_well(f, A: np.ndarray, B: np.ndarray):
    """``(d2, which, terms)``: squared distance to SO(2)A u SO(2)B, the
    nearest well (bool, True for B) and both wells' ``(p, q, r)``."""
    f2 = frobenius2(f)
    d2a, *terms_a = _orbit_terms(f, f2, A)
    d2b, *terms_b = _orbit_terms(f, f2, B)
    which = d2b < d2a
    return np.where(which, d2b, d2a), which, (terms_a, terms_b)


def nearest_well_grad(f, which, terms, A: np.ndarray, B: np.ndarray):
    """Entries of the gradient in F of the squared well distance, from the
    ``which`` and ``terms`` of :func:`nearest_well`: ``2 F - (c1 G + c2 JG)``
    on the active well G (A at a tie), with ``(c1, c2) = (2p/r, 2q/r)``, or
    the identity-rotation subgradient ``2 (F - G)`` where r = 0."""
    p, q, r = (np.where(which, b, a) for a, b in zip(*terms))
    ok = r > 0.0
    inv = np.divide(2.0, r, out=np.zeros_like(r), where=ok)
    c1 = np.where(ok, inv * p, 2.0)
    c2 = inv * q
    g00, g01, g10, g11 = np.take(np.stack([A.ravel(), B.ravel()], axis=1),
                                 which.view(np.uint8), axis=1)
    f00, f01, f10, f11 = f
    return (2.0 * f00 - (c1 * g00 - c2 * g10), 2.0 * f01 - (c1 * g01 - c2 * g11),
            2.0 * f10 - (c1 * g10 + c2 * g00), 2.0 * f11 - (c1 * g11 + c2 * g01))


def _dot(a, b) -> float:
    """``a . b`` by ``np.einsum``, whose order does not depend on BLAS threads."""
    return float(np.einsum("i,i->", a, b))


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


def _exact_tv(mesh: Mesh, jn: np.ndarray) -> float:
    return float(np.sum(mesh.edge_len * jn[mesh.edge_mask]))


def minimize(initial: DiscreteField, spec: WellSpec, eps: float,
             options: MinimizeOptions | None = None) -> MinimizeResult:
    """L-BFGS descent of the Huberized discrete energy from a start that is
    the identity on the boundary.

    Stops when the free-node gradient norm drops below the tolerance
    ("gtol"), when backtracking cannot decrease the energy any further
    ("stalled": numerically at a local minimum of the smoothed energy), or
    at the iteration budget ("max_iter").  The L-BFGS constants are read
    from :mod:`twowell.fem` at call time, so a test that patches them
    patches both minimizers."""
    opts = options or MinimizeOptions()
    mesh = initial.mesh
    bnd = mesh.boundary_mask
    if not np.allclose(initial.values[bnd], mesh.nodes[bnd], atol=1e-12):
        raise ValueError("boundary nodes must carry identity values")
    delta = opts.delta_huber if opts.delta_huber is not None else default_huber_delta(spec)
    tol = fem.GRAD_TOL_SCALE * math.sqrt(2.0 * mesh.n_free)

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
        gnorm = math.sqrt(_dot(g, g))
        if gnorm <= tol:
            status = "gtol"
            break
        # Two-loop recursion.
        q = -g.copy()
        alphas = []
        for s, y in zip(reversed(s_list), reversed(y_list)):
            rho = 1.0 / _dot(y, s)
            a = rho * _dot(s, q)
            alphas.append((a, rho, s, y))
            q -= a * y
        if y_list:
            y = y_list[-1]
            s = s_list[-1]
            q *= _dot(s, y) / _dot(y, y)
        for a, rho, s, y in reversed(alphas):
            b = rho * _dot(y, q)
            q += (a - b) * s
        d = q
        slope = _dot(g, d)
        if slope >= 0.0:
            d = -g
            slope = -_dot(g, g)
        # Armijo backtracking: trial points need the energy only.
        t = 1.0
        accepted = False
        for _ in range(fem.MAX_BACKTRACKS):
            x_new = x + t * d
            new_point = energy_at(x_new)
            f_new = total(new_point)
            if f_new <= f + fem.ARMIJO * t * slope:
                accepted = True
                break
            backtracks += 1
            t *= fem.SHRINK
        if not accepted:
            status = "stalled"
            break
        g_new = gradient_at(new_point)
        s_vec = x_new - x
        y_vec = g_new - g
        if _dot(s_vec, y_vec) > 1e-300:
            s_list.append(s_vec)
            y_list.append(y_vec)
            if len(s_list) > fem.MEMORY:
                s_list.pop(0)
                y_list.pop(0)
        x, f, g, point = x_new, f_new, g_new, new_point
        trace.append(f)

    interior[...] = x.reshape(interior.shape)
    out_field = DiscreteField(mesh, values)
    jn = point[2][3]  # the accepted point's jump norms
    breakdown = EnergyBreakdown.combine(point[0], 0.0, _exact_tv(mesh, jn), eps, 0.0)
    gnorm = math.sqrt(_dot(g, g))
    return MinimizeResult(out_field, np.asarray(trace), breakdown, it, gnorm, status,
                          energy_evals, grad_evals, backtracks)


