import math

import numpy as np
import pytest

from twowell import kernels
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

DOM = Rect(0.0, 0.0, 1.0, 1.0)


def test_mesh_construction():
    mesh = Mesh(4, 3, Rect(0.0, 0.0, 2.0, 1.5))
    assert mesh.n_nodes == 5 * 4
    assert mesh.n_tris == 24
    assert mesh.tri_area == pytest.approx(0.5 * 0.5 * 0.5)
    assert mesh.boundary_mask.sum() == 2 * 5 + 2 * 2
    # every interior edge references two distinct triangles
    assert np.all(mesh.edge_tris[:, 0] != mesh.edge_tris[:, 1])
    with pytest.raises(ValueError):
        Mesh(1, 4, DOM)


def _edges_by_loop(mesh):
    """Interior edges as (left tri, right tri, length), one cell at a time."""
    nx, ny = mesh.nx, mesh.ny
    ncell = nx * ny
    diag = math.hypot(mesh.hx, mesh.hy)
    edges = []
    for j in range(ny):
        for i in range(nx):
            lo = j * nx + i
            up = lo + ncell
            edges.append((lo, up, diag))
            if i + 1 < nx:
                edges.append((lo, lo + 1 + ncell, mesh.hy))
            if j + 1 < ny:
                edges.append((up, lo + nx, mesh.hx))
    e = np.array(edges)
    return e[:, :2].astype(int), e[:, 2].astype(float)


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (10, 8), (17, 4)])
def test_mesh_edges_match_loop(shape):
    mesh = Mesh(*shape, Rect(0.0, 0.0, 1.3, 0.7))
    tris, lens = _edges_by_loop(mesh)
    np.testing.assert_array_equal(mesh.edge_tris, tris)
    np.testing.assert_array_equal(mesh.edge_len, lens)
    assert mesh.edge_tris.dtype == tris.dtype


def _two_pass_reference(field, spec, eps, delta):
    """Energy and gradient as two separate passes with ``np.add.at``."""
    mesh = field.mesh
    A, B = well_matrices(spec)
    F = mesh.gradients(field.values)
    d2, _ = kernels.dist2_two_wells(F, A, B)
    J = F[mesh.edge_tris[:, 0]] - F[mesh.edge_tris[:, 1]]
    jn = np.sqrt(np.einsum("eij,eij->e", J, J))
    huber = np.where(jn <= delta, jn * jn / (2.0 * delta), jn - 0.5 * delta)
    elastic = mesh.tri_area * float(np.sum(d2))
    tv = float(np.sum(mesh.edge_len * huber))

    _, dW = kernels.dist2_two_wells_grad(F, A, B)
    dF = mesh.tri_area * dW
    if eps != 0.0:
        w = eps * mesh.edge_len * np.where(jn <= delta, 1.0 / delta,
                                           1.0 / np.maximum(jn, 1e-300))
        dJ = w[:, None, None] * J
        np.add.at(dF, mesh.edge_tris[:, 0], dJ)
        np.add.at(dF, mesh.edge_tris[:, 1], -dJ)
    contrib = (np.einsum("tc,tk->tkc", dF[:, :, 0], mesh.cx)
               + np.einsum("tc,tk->tkc", dF[:, :, 1], mesh.cy))
    grad = np.zeros((mesh.n_nodes, 2))
    np.add.at(grad, mesh.tris.ravel(), contrib.reshape(-1, 2))
    grad[mesh.boundary_mask] = 0.0
    return (elastic, tv, elastic + eps * tv), grad


def test_fused_pass_matches_two_pass_reference():
    rng = np.random.default_rng(11)
    mesh = Mesh(12, 9, Rect(0.0, 0.0, 1.0, 0.8))
    fields = []
    for _ in range(3):
        vals = mesh.nodes.copy()
        vals[mesh.free_mask] += 0.03 * rng.standard_normal((mesh.n_free, 2))
        fields.append(DiscreteField(mesh, vals))
    # unpinned laminate: interfaces between mesh lines, and jumps below the
    # Huber width from a tiny perturbation of its mesh-aligned rows
    lam = laminate(DOM, 0.25, 0.2, CASE_K2)
    lmesh = Mesh(16, 14, DOM)
    u, _ = lam.evaluate(lmesh.nodes)
    u += 1e-9 * rng.standard_normal(u.shape)
    fields.append(DiscreteField(lmesh, u, pinned=False))
    for case in (CASE_K1, CASE_K2):
        spec = WellSpec(case, 0.2)
        delta = default_huber_delta(spec)
        for fld in fields:
            for eps in (0.0, 1e-3):
                energy, grad = _two_pass_reference(fld, spec, eps, delta)
                assert discrete_energy(fld, spec, eps) == energy
                np.testing.assert_allclose(discrete_gradient(fld, spec, eps), grad,
                                           rtol=1e-13, atol=1e-16)


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
    with pytest.raises(ValueError):
        DiscreteField(mesh, vals)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    mesh = Mesh(8, 8, DOM)
    eps = 1e-3
    worst = 0.0
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
    fld = DiscreteField(mesh, u, pinned=False)
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
        fld = DiscreteField(mesh, u, pinned=False)
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
