import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from twowell import _kernels_np, fem
from twowell.fem import (
    DiscreteField,
    Mesh,
    MinimizeOptions,
    default_huber_delta,
    discrete_energy,
    discrete_gradient,
    exact_tv,
    minimize,
    seed_from_construction,
)
from twowell.microstructure import horizontal_branched, laminate
from twowell.piecewise import Rect, identity_deformation
from twowell.wells import CASE_K1, CASE_K2, WellSpec, well_matrices

import fem_oracles

DOM = Rect(0.0, 0.0, 1.0, 1.0)


def test_mesh_construction():
    mesh = Mesh(4, 3, Rect(0.0, 0.0, 2.0, 1.5))
    assert mesh.n_nodes == 5 * 4
    assert mesh.n_tris == 24
    assert mesh.tri_area == pytest.approx(0.5 * 0.5 * 0.5)
    assert mesh.boundary_mask.sum() == 2 * 5 + 2 * 2
    # the boundary is the outer ring of the node grid, whatever the
    # rectangle's offset or size
    for rect in (Rect(1000.0, 0.0, 0.1, 0.1), Rect(0.0, 0.0, 1e-9, 1e-9)):
        assert Mesh(10, 10, rect).boundary_mask.sum() == 4 * 10
    with pytest.raises(ValueError):
        Mesh(1, 4, DOM)


def _unstructured(mesh):
    """The index tables of an unstructured P1 mesh, built with array code:
    per-triangle gradient operators ``cx`` / ``cy`` (d_x u = cx . u(tri
    nodes)), and the interior edges as (left tri, right tri), cell by cell
    in row-major order: the diagonal, then the edge shared with the
    right-hand cell, then the edge shared with the cell above."""
    nx, ny = mesh.nx, mesh.ny
    ncell = nx * ny
    ix, iy = 1.0 / mesh.hx, 1.0 / mesh.hy
    # (half, vertex, x/y): the lower triangles come first.
    tri_ops = np.array([[[-ix, 0.0], [ix, -iy], [0.0, iy]],
                        [[0.0, -iy], [ix, 0.0], [-ix, iy]]])
    lo = np.arange(ncell).reshape(ny, nx)
    up = lo + ncell
    pairs = np.empty((ny, nx, 3, 2), dtype=np.intp)
    pairs[:, :, 0] = np.stack([lo, up], axis=-1)
    pairs[:, :-1, 1] = np.stack([lo[:, :-1], up[:, 1:]], axis=-1)
    pairs[:-1, :, 2] = np.stack([up[:-1], lo[1:]], axis=-1)
    present = np.ones((ny, nx, 3), dtype=bool)
    present[:, -1, 1] = False
    present[-1, :, 2] = False
    lengths = np.array([math.hypot(mesh.hx, mesh.hy), mesh.hy, mesh.hx])
    edge_tris = pairs[present]
    return SimpleNamespace(
        tri_ops=tri_ops,
        cx=np.repeat(tri_ops[:, :, 0], ncell, axis=0),
        cy=np.repeat(tri_ops[:, :, 1], ncell, axis=0),
        edge_tris=edge_tris,
        edge_len=np.broadcast_to(lengths, present.shape)[present],
        # flat bincount index of the edge term: every left triangle, then
        # every right one
        edge_sides=edge_tris.T.ravel())


def _edges_by_loop(mesh):
    """Triangles as node triples and interior edges as (left tri, right tri,
    length), one cell at a time."""
    nx, ny = mesh.nx, mesh.ny
    ncell = nx * ny
    diag = math.hypot(mesh.hx, mesh.hy)
    tris = [None] * (2 * ncell)
    edges = []
    for j in range(ny):
        for i in range(nx):
            n00 = j * (nx + 1) + i
            n10, n01, n11 = n00 + 1, n00 + nx + 1, n00 + nx + 2
            lo = j * nx + i
            up = lo + ncell
            tris[lo] = (n00, n10, n11)
            tris[up] = (n00, n11, n01)
            edges.append((lo, up, diag))
            if i + 1 < nx:
                edges.append((lo, lo + 1 + ncell, mesh.hy))
            if j + 1 < ny:
                edges.append((up, lo + nx, mesh.hx))
    e = np.array(edges)
    return np.array(tris), e[:, :2].astype(int), e[:, 2].astype(float)


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (10, 8), (17, 4)])
def test_mesh_edges_match_loop(shape):
    mesh = Mesh(*shape, Rect(0.0, 0.0, 1.3, 0.7))
    t = _unstructured(mesh)
    tris, edge_tris, lens = _edges_by_loop(mesh)
    np.testing.assert_array_equal(mesh.tris, tris)
    np.testing.assert_array_equal(t.edge_tris, edge_tris)
    assert t.edge_tris.dtype == edge_tris.dtype
    # every interior edge references two distinct triangles
    assert np.all(t.edge_tris[:, 0] != t.edge_tris[:, 1])
    np.testing.assert_array_equal(mesh.edge_len, lens)
    np.testing.assert_array_equal(t.edge_len, lens)
    assert mesh.edge_mask.sum() == len(lens)


def _oracle_gradients(mesh, t, values):
    """Per-triangle F, shape (n_tris, 2, 2): a gather and two einsums."""
    ut = values[mesh.tris]  # (nt, 3, 2)
    F = np.empty((mesh.n_tris, 2, 2))
    F[:, :, 0] = np.einsum("tk,tkc->tc", t.cx, ut)
    F[:, :, 1] = np.einsum("tk,tkc->tc", t.cy, ut)
    return F


def _oracle_passes(field, spec, eps, delta):
    """Energy, gradient (boundary nodes included) and exact TV on the
    unstructured tables: gathered F, fancy-indexed edge jumps and
    ``np.bincount`` scatters."""
    mesh = field.mesh
    t = _unstructured(mesh)
    A, B = well_matrices(spec)
    F = _oracle_gradients(mesh, t, field.values)
    d2, dW = _kernels_np.dist2_two_wells_grad(F, A, B)
    elastic = mesh.tri_area * float(np.sum(d2))
    J = F[t.edge_tris[:, 0]] - F[t.edge_tris[:, 1]]
    jn = np.sqrt(np.einsum("eij,eij->e", J, J))
    huber = np.where(jn <= delta, jn * jn / (2.0 * delta), jn - 0.5 * delta)
    tv = float(np.sum(t.edge_len * huber))

    dF = mesh.tri_area * dW
    nt = mesh.n_tris
    if eps != 0.0:
        w = eps * t.edge_len * np.where(jn <= delta, 1.0 / delta,
                                        1.0 / np.maximum(jn, 1e-300))
        wJ = np.multiply(J.reshape(-1, 4).T, w, order="C")  # (entry, edge)
        dF4 = dF.reshape(nt, 4)
        for m in range(4):
            dF4[:, m] += np.bincount(t.edge_sides, np.concatenate([wJ[m], -wJ[m]]), nt)
    # vertex k of triangle t receives dF[t, c, 0] * cx[t, k] +
    # dF[t, c, 1] * cy[t, k] in component c, laid out (c, half, t, k)
    contrib = (dF.reshape(2, nt // 2, 2, 2).transpose(2, 0, 1, 3)
               @ t.tri_ops.transpose(0, 2, 1))
    grad = np.empty((mesh.n_nodes, 2))
    for c in range(2):
        grad[:, c] = np.bincount(mesh.tris.ravel(), contrib[c].ravel(), mesh.n_nodes)
    exact = float(np.sum(t.edge_len * jn))
    return (elastic, tv, elastic + eps * tv), grad, exact


def _two_pass_reference(field, spec, eps, delta):
    """Energy and gradient as two separate passes with ``np.add.at``."""
    mesh = field.mesh
    t = _unstructured(mesh)
    A, B = well_matrices(spec)
    F = _oracle_gradients(mesh, t, field.values)
    d2, _ = _kernels_np.dist2_two_wells(F, A, B)
    J = F[t.edge_tris[:, 0]] - F[t.edge_tris[:, 1]]
    jn = np.sqrt(np.einsum("eij,eij->e", J, J))
    huber = np.where(jn <= delta, jn * jn / (2.0 * delta), jn - 0.5 * delta)
    elastic = mesh.tri_area * float(np.sum(d2))
    tv = float(np.sum(t.edge_len * huber))

    _, dW = _kernels_np.dist2_two_wells_grad(F, A, B)
    dF = mesh.tri_area * dW
    if eps != 0.0:
        w = eps * t.edge_len * np.where(jn <= delta, 1.0 / delta,
                                        1.0 / np.maximum(jn, 1e-300))
        dJ = w[:, None, None] * J
        np.add.at(dF, t.edge_tris[:, 0], dJ)
        np.add.at(dF, t.edge_tris[:, 1], -dJ)
    contrib = (np.einsum("tc,tk->tkc", dF[:, :, 0], t.cx)
               + np.einsum("tc,tk->tkc", dF[:, :, 1], t.cy))
    grad = np.zeros((mesh.n_nodes, 2))
    np.add.at(grad, mesh.tris.ravel(), contrib.reshape(-1, 2))
    grad[mesh.boundary_mask] = 0.0
    return (elastic, tv, elastic + eps * tv), grad


def _perturbed(mesh, rng, scale=0.03):
    vals = mesh.nodes.copy()
    vals[mesh.free_mask] += scale * rng.standard_normal((mesh.n_free, 2))
    return DiscreteField(mesh, vals)


def _sub_huber_laminate(rng, nx=16, ny=14):
    """Laminate off the identity boundary data: interfaces between mesh
    lines, and jumps below the Huber width from a tiny perturbation of its
    mesh-aligned rows."""
    lam = laminate(DOM, 0.25, 0.2, CASE_K2)
    mesh = Mesh(nx, ny, DOM)
    u, _ = lam.evaluate(mesh.nodes)
    u += 1e-9 * rng.standard_normal(u.shape)
    return DiscreteField(mesh, u)


def test_fused_pass_matches_two_pass_reference():
    rng = np.random.default_rng(11)
    mesh = Mesh(12, 9, Rect(0.0, 0.0, 1.0, 0.8))
    fields = [_perturbed(mesh, rng) for _ in range(3)]
    fields.append(_sub_huber_laminate(rng))
    for case in (CASE_K1, CASE_K2):
        spec = WellSpec(case, 0.2)
        delta = default_huber_delta(spec)
        for fld in fields:
            for eps in (0.0, 1e-3):
                energy, grad = _two_pass_reference(fld, spec, eps, delta)
                assert discrete_energy(fld, spec, eps) == energy
                np.testing.assert_allclose(discrete_gradient(fld, spec, eps), grad,
                                           rtol=1e-13, atol=1e-16)


def _node_gradient(fld, spec, eps, delta):
    """The node-grid gradient of the workspace passes, boundary nodes
    included, as (n_nodes, 2)."""
    mesh = fld.mesh
    A, B = well_matrices(spec)
    ws = fem._Workspace(mesh)
    pt = ws.points[0]
    fem._energy_pass(mesh, fld.values, A, B, delta, ws, pt)
    return fem._gradient_pass(mesh, pt, A, B, eps, delta, ws).reshape(2, -1).T


def _assert_matches_oracle(fld, spec):
    delta = default_huber_delta(spec)
    boundary = fld.mesh.boundary_mask[:, None]
    for eps in (0.0, 1e-3):
        energy, grad, exact = _oracle_passes(fld, spec, eps, delta)
        assert discrete_energy(fld, spec, eps) == energy
        np.testing.assert_allclose(discrete_gradient(fld, spec, eps),
                                   np.where(boundary, 0.0, grad), rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(_node_gradient(fld, spec, eps, delta), grad,
                                   rtol=1e-13, atol=1e-16)
    assert exact_tv(fld) == exact


_ORACLE_MESHES = [(2, 2, DOM), (3, 5, DOM), (17, 4, DOM), (10, 8, DOM),
                  (7, 5, Rect(-0.4, 0.3, 1.7, 0.55))]


@pytest.mark.parametrize("case", [CASE_K1, CASE_K2])
@pytest.mark.parametrize("nx, ny, rect", _ORACLE_MESHES)
def test_stencil_passes_match_unstructured_oracle(nx, ny, rect, case):
    rng = np.random.default_rng(nx * 100 + ny)
    spec = WellSpec(case, 0.2)
    mesh = Mesh(nx, ny, rect)
    for _ in range(2):
        _assert_matches_oracle(_perturbed(mesh, rng), spec)
    _assert_matches_oracle(_sub_huber_laminate(rng, 3 * nx, 2 * ny), spec)


def test_stencil_passes_match_oracle_on_random_meshes():
    """Random shapes (nx != ny, so a row length taken from the wrong axis
    shows) and rectangles: the padded passes give the unstructured oracle's
    energy and exact TV to the bit and its gradient to 1e-13, so no pad
    entry reaches a sum."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(nx=st.integers(2, 40), ny=st.integers(2, 40),
                      case=st.sampled_from([CASE_K1, CASE_K2]), alpha=st.floats(0.05, 0.45),
                      x0=st.floats(-10.0, 10.0), y0=st.floats(-10.0, 10.0),
                      width=st.floats(0.1, 10.0), height=st.floats(0.1, 10.0),
                      seed=st.integers(0, 2**32 - 1))
    def check(nx, ny, case, alpha, x0, y0, width, height, seed):
        hypothesis.assume(nx != ny)
        mesh = Mesh(nx, ny, Rect(x0, y0, width, height))
        rng = np.random.default_rng(seed)
        fld = _perturbed(mesh, rng, 0.3 * min(mesh.hx, mesh.hy))
        _assert_matches_oracle(fld, WellSpec(case, alpha))

    check()


def test_oracle_rejects_swapped_upper_stencil(monkeypatch):
    """Negative control: swapping the x and y differences of the upper
    triangles must fail the oracle comparison."""
    stencil = fem._gradients

    def swapped(mesh, values, *buffers):
        F = stencil(mesh, values, *buffers)  # F[c, d, half]
        F[:, :, 1] = F[:, ::-1, 1].copy()
        return F

    fld = _perturbed(Mesh(10, 8, DOM), np.random.default_rng(4))
    spec = WellSpec(CASE_K2, 0.2)
    _assert_matches_oracle(fld, spec)
    monkeypatch.setattr(fem, "_gradients", swapped)
    with pytest.raises(AssertionError):
        _assert_matches_oracle(fld, spec)


def test_identity_field_energy():
    mesh = Mesh(8, 8, DOM)
    fld = DiscreteField.identity(mesh)
    a = 0.2
    el, tv, tot = discrete_energy(fld, WellSpec(CASE_K2, a), 1e-3)
    assert el == pytest.approx(a * a, rel=1e-12)
    assert tv == pytest.approx(0.0, abs=1e-15)
    assert tot == pytest.approx(el, rel=1e-12)


def test_boundary_pinning_enforced():
    mesh = Mesh(4, 4, DOM)
    vals = mesh.nodes.copy()
    vals[0] += 0.1  # corner node
    start = DiscreteField(mesh, vals)
    spec = WellSpec(CASE_K2, 0.2)
    for run in (minimize, fem_oracles.minimize):
        with pytest.raises(ValueError, match="boundary nodes must carry identity values"):
            run(start, spec, 1e-3)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    eps = 1e-3
    worst = 0.0
    for mesh in (Mesh(8, 8, DOM), Mesh(9, 5, Rect(0.2, -0.1, 1.3, 0.6))):
        for case in (CASE_K1, CASE_K2):
            spec = WellSpec(case, 0.2)
            for _ in range(10):
                vals = mesh.nodes.copy()
                vals[mesh.free_mask] += 0.03 * rng.standard_normal((mesh.n_free, 2))
                fld = DiscreteField(mesh, vals)
                g = discrete_gradient(fld, spec, eps)
                assert np.all(g[mesh.boundary_mask] == 0.0)
                nodes = rng.choice(np.flatnonzero(mesh.free_mask), 10, replace=False)
                for i in nodes:
                    for c in range(2):
                        h = 1e-7
                        vp, vm = vals.copy(), vals.copy()
                        vp[i, c] += h
                        vm[i, c] -= h
                        fd = (discrete_energy(DiscreteField(mesh, vp), spec, eps)[2]
                              - discrete_energy(DiscreteField(mesh, vm), spec, eps)[2]) / (2 * h)
                        worst = max(worst, abs(fd - g[i, c]) / max(abs(fd), 1e-10))
    assert worst < 1e-5


def test_huber_limit_recovers_exact_jump():
    rng = np.random.default_rng(3)
    mesh = Mesh(2, 2, DOM)
    vals = mesh.nodes.copy()
    vals[mesh.free_mask] += 0.05 * rng.standard_normal((mesh.n_free, 2))
    fld = DiscreteField(mesh, vals)
    spec = WellSpec(CASE_K2, 0.2)
    _, tv_tiny, _ = discrete_energy(fld, spec, 1.0, delta=1e-12)
    assert tv_tiny == pytest.approx(exact_tv(fld), rel=1e-9)
    # huber is a lower bound within delta/2 per unit edge length
    _, tv_big, _ = discrete_energy(fld, spec, 1.0, delta=1e-3)
    assert tv_big <= exact_tv(fld)
    assert exact_tv(fld) - tv_big <= 0.5 * 1e-3 * float(np.sum(mesh.edge_len))


def test_mesh_aligned_laminate_is_exact():
    # interfaces on mesh lines: the sampled laminate has zero elastic energy
    # and its jump TV equals the interface count times 2 alpha (up to Huber)
    a, h = 0.2, 0.25
    spec = WellSpec(CASE_K2, a)
    lam = laminate(DOM, h, a, CASE_K2)
    mesh = Mesh(16, 16, DOM)  # 16 * 0.0625 aligned
    u, _ = lam.evaluate(mesh.nodes)
    fld = DiscreteField(mesh, u)
    el, tv, _ = discrete_energy(fld, spec, 0.0, delta=1e-12)
    assert el == pytest.approx(0.0, abs=1e-12)
    interfaces = 2 * int(round(1.0 / h))
    assert tv == pytest.approx(interfaces * 2.0 * a, rel=1e-9)


def test_misaligned_laminate_elastic_converges_first_order():
    # interfaces between mesh lines: the interpolation error rows shrink
    # like the mesh size, so the elastic term converges at order >= 1
    a, h = 0.2, 0.25
    spec = WellSpec(CASE_K2, a)
    lam = laminate(DOM, h, a, CASE_K2)
    els = []
    ns = (24, 48, 96)  # n * h/4 is never an integer multiple
    for n in ns:
        mesh = Mesh(n, n, DOM)
        u, _ = lam.evaluate(mesh.nodes)
        fld = DiscreteField(mesh, u)
        el, _, _ = discrete_energy(fld, spec, 0.0, delta=1e-12)
        els.append(el)
    order = -np.polyfit(np.log(ns), np.log(els), 1)[0]
    assert order >= 1.0 - 0.2


def test_minimize_descends_and_traces():
    mesh = Mesh(10, 10, DOM)
    spec = WellSpec(CASE_K2, 0.2)
    res = minimize(DiscreteField.identity(mesh), spec, 1e-3,
                   MinimizeOptions(max_iter=120))
    assert res.energy_trace[0] == pytest.approx(0.04, rel=1e-10)
    assert np.all(np.diff(res.energy_trace) <= 1e-12)
    # the un-Hubered report can only exceed the smoothed energy by the
    # Huber correction, delta/2 per unit edge length
    delta = default_huber_delta(spec)
    slack = 0.5 * delta * float(np.sum(mesh.edge_len)) * 1e-3
    assert res.energy_trace[-1] - 1e-12 <= res.final_energy.total \
        <= res.energy_trace[-1] + slack + 1e-12
    assert res.status in ("gtol", "stalled", "max_iter")
    # the report comes from the accepted point's cached F and jump norms
    assert res.final_energy.tv_jump == exact_tv(res.field)
    assert res.final_energy.elastic == discrete_energy(res.field, spec, 1e-3)[0]


def test_minimize_counts_evaluations():
    mesh = Mesh(12, 12, DOM)
    spec = WellSpec(CASE_K2, 0.1)
    d = horizontal_branched(spec, 1e-3, DOM)
    seed, _ = seed_from_construction(d, mesh)
    for start in (seed, DiscreteField.identity(mesh)):
        res = minimize(start, spec, 1e-3, MinimizeOptions(max_iter=30))
        assert res.status != "stalled"
        assert res.grad_evals == len(res.energy_trace)
        assert res.energy_evals == res.grad_evals + res.backtracks
    assert res.backtracks > 0


def test_minimize_stays_at_identity_for_huge_surface_weight():
    mesh = Mesh(8, 8, DOM)
    spec = WellSpec(CASE_K2, 0.2)
    res = minimize(DiscreteField.identity(mesh), spec, 100.0,
                   MinimizeOptions(max_iter=80))
    assert res.energy_trace[-1] == pytest.approx(0.04, rel=1e-4)
    np.testing.assert_allclose(res.field.values, mesh.nodes, atol=1e-4)


def test_multistart_beats_construction_seed():
    spec = WellSpec(CASE_K2, 0.1)
    eps = 1e-3
    mesh = Mesh(32, 32, DOM)
    d = horizontal_branched(spec, eps, DOM)
    seed, _ = seed_from_construction(d, mesh)
    seed_energy = discrete_energy(seed, spec, eps)[2]
    res_c = minimize(seed, spec, eps, MinimizeOptions(max_iter=150))
    res_i = minimize(DiscreteField.identity(mesh), spec, eps,
                     MinimizeOptions(max_iter=150))
    best = min(res_c.final_energy.total, res_i.final_energy.total)
    assert best <= seed_energy + 1e-12


def test_seed_resolution_guard():
    spec = WellSpec(CASE_K2, 0.1)
    d = horizontal_branched(spec, 1e-4, DOM)  # finest period 1/128
    coarse = Mesh(24, 24, DOM)
    _, notes = seed_from_construction(d, coarse)
    assert notes and "under-resolved" in notes[0]
    fine = Mesh(320, 320, DOM)
    fld, notes = seed_from_construction(d, fine)
    assert not notes
    assert np.all(fld.values[fine.boundary_mask] == fine.nodes[fine.boundary_mask])


def test_seed_domain_mismatch_rejected():
    spec = WellSpec(CASE_K2, 0.1)
    d = identity_deformation(DOM)
    with pytest.raises(ValueError):
        seed_from_construction(d, Mesh(8, 8, Rect(0.0, 0.0, 2.0, 1.0)))


def test_default_huber_delta_scales_with_strain():
    assert default_huber_delta(WellSpec(CASE_K1, 0.2)) == pytest.approx(2e-7)


def _assert_same_run(res, ref):
    np.testing.assert_array_equal(res.energy_trace, ref.energy_trace)
    np.testing.assert_array_equal(res.field.values, ref.field.values)
    assert res.final_energy == ref.final_energy
    for name in ("iterations", "status", "gradient_norm", "energy_evals", "grad_evals",
                 "backtracks"):
        assert getattr(res, name) == getattr(ref, name), name


@pytest.mark.parametrize("case", [CASE_K1, CASE_K2])
@pytest.mark.parametrize("nx, ny, rect", [(24, 24, DOM), (17, 11, Rect(-0.3, 0.2, 1.4, 0.9))])
def test_minimize_matches_oracle_bit_for_bit(nx, ny, rect, case, monkeypatch):
    """The workspace passes, the specialized kernel and the ring-buffer
    L-BFGS reproduce the allocating oracle exactly."""
    spec = WellSpec(case, 0.1)
    mesh = Mesh(nx, ny, rect)
    seed, _ = seed_from_construction(horizontal_branched(spec, 1e-3, rect), mesh)
    runs = [(1e-3, MinimizeOptions(max_iter=40), fem.MEMORY),
            (0.0, MinimizeOptions(max_iter=40), fem.MEMORY),
            (1e-3, MinimizeOptions(max_iter=40, delta_huber=1e-4), fem.MEMORY),
            (1e-3, MinimizeOptions(max_iter=40), 1)]
    for start in (DiscreteField.identity(mesh), seed):
        for eps, opts, memory in runs:
            monkeypatch.setattr(fem, "MEMORY", memory)
            _assert_same_run(minimize(start, spec, eps, opts),
                             fem_oracles.minimize(start, spec, eps, opts))


def test_minimize_matches_oracle_at_gtol_and_stall(monkeypatch):
    spec = WellSpec(CASE_K2, 0.1)
    mesh = Mesh(17, 11, Rect(-0.3, 0.2, 1.4, 0.9))
    seed, _ = seed_from_construction(horizontal_branched(spec, 1e-3, mesh.rect), mesh)
    opts = MinimizeOptions(max_iter=200)
    # The stall leaves a rejected trial in the workspace; the report must
    # still come from the accepted point.
    for status, grad_tol_scale, max_backtracks in (
            ("gtol", fem.GRAD_TOL_SCALE, fem.MAX_BACKTRACKS), ("stalled", 0.0, 12)):
        monkeypatch.setattr(fem, "GRAD_TOL_SCALE", grad_tol_scale)
        monkeypatch.setattr(fem, "MAX_BACKTRACKS", max_backtracks)
        res = minimize(seed, spec, 0.0, opts)
        assert res.status == status and res.iterations > 20
        _assert_same_run(res, fem_oracles.minimize(seed, spec, 0.0, opts))


def test_minimize_rejects_a_trial_that_overflows_the_kernel(monkeypatch):
    """The one interior node of a 2x2 mesh, moved by 1e153: the energy is
    finite (about 4e306), but the first trial, 7e153 the other way, has
    gradients near 1.4e154, where the kernel's p*p + q*q overflows and d2
    is NaN or inf.  The Armijo test rejects that trial, a backtracked step
    is accepted, and the run stays finite and matches the oracle
    minimizer."""
    mesh = Mesh(2, 2, DOM)
    spec = WellSpec(CASE_K2, 0.2)
    vals = mesh.nodes.copy()
    vals[4, 0] += 1e153
    start = DiscreteField(mesh, vals)
    elastic = []
    energy_pass = fem._energy_pass

    def recorded(mesh, values, A, B, delta, ws, pt):
        energy_pass(mesh, values, A, B, delta, ws, pt)
        elastic.append(pt.elastic)

    monkeypatch.setattr(fem, "_energy_pass", recorded)
    opts = MinimizeOptions(max_iter=20)
    with np.errstate(over="ignore", invalid="ignore"):
        res = minimize(start, spec, 0.0, opts)
        ref = fem_oracles.minimize(start, spec, 0.0, opts)
    assert math.isfinite(elastic[0]) and elastic[0] > 1e306
    assert not math.isfinite(elastic[1])
    assert res.backtracks >= 1
    assert np.all(np.isfinite(res.energy_trace)) and res.energy_trace[1] < 1.0
    assert np.all(np.diff(res.energy_trace) <= 0.0)
    assert np.all(np.isfinite(res.field.values))
    _assert_same_run(res, ref)


def test_passes_allocate_nothing_in_the_workspace():
    """After a warm-up, an energy and gradient evaluation in a workspace
    traces less new memory than one F array; the allocating oracle passes
    trace more (negative control)."""
    mesh = Mesh(64, 64, DOM)
    spec = WellSpec(CASE_K2, 0.1)
    A, B = well_matrices(spec)
    delta = default_huber_delta(spec)
    values = _perturbed(mesh, np.random.default_rng(8)).values
    ws = fem._Workspace(mesh)
    pt = ws.points[0]
    f_bytes = 2 * 2 * 2 * 64 * 64 * 8

    def ours():
        fem._energy_pass(mesh, values, A, B, delta, ws, pt)
        fem._gradient_pass(mesh, pt, A, B, 1e-3, delta, ws)

    def oracle():
        *_, state = fem_oracles._energy_pass(mesh, values, A, B, delta)
        fem_oracles._gradient_pass(mesh, state, A, B, 1e-3, delta)

    def traced_peak(evaluate):
        evaluate()
        tracemalloc.start()
        try:
            evaluate()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(ours) < f_bytes
    assert traced_peak(oracle) > f_bytes
