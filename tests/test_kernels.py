import numpy as np
import pytest

from twowell import _kernels_np
from twowell import kernels
from twowell.wells import WellSpec, dist_to_wells, rotation, well_matrices

from fem_oracles import nearest_well as dense_nearest_well
from fem_oracles import nearest_well_grad as dense_nearest_well_grad

try:
    from twowell import _kernels as _kernels_cy
except ImportError:
    _kernels_cy = None


def _batch(rng, n=400):
    return rng.uniform(-3.0, 3.0, (n, 2, 2))


def test_numpy_kernel_matches_scalar_reference():
    rng = np.random.default_rng(0)
    spec = WellSpec("k1", 0.25)
    A, B = well_matrices(spec)
    F = _batch(rng, 100)
    d2, which = _kernels_np.dist2_two_wells(F, A, B)
    for i in range(len(F)):
        ref = dist_to_wells(F[i], spec)
        assert d2[i] == pytest.approx(ref.distance ** 2, abs=1e-12)


@pytest.mark.skipif(_kernels_cy is None, reason="compiled kernels not built")
def test_backends_agree():
    rng = np.random.default_rng(1)
    for case, a in (("k1", 0.2), ("k2", 0.35)):
        A, B = well_matrices(WellSpec(case, a))
        F = _batch(rng)
        d_np, w_np = _kernels_np.dist2_two_wells(F, A, B)
        d_cy, w_cy = _kernels_cy.dist2_two_wells(F, A, B)
        np.testing.assert_allclose(d_np, d_cy, atol=1e-13)
        np.testing.assert_array_equal(w_np, w_cy)
        g_np = _kernels_np.dist2_two_wells_grad(F, A, B)[1]
        g_cy = _kernels_cy.dist2_two_wells_grad(F, A, B)[1]
        np.testing.assert_allclose(g_np, g_cy, atol=1e-13)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    A, B = well_matrices(WellSpec("k2", 0.3))
    F = _batch(rng, 40)
    d2, grad = kernels.dist2_two_wells_grad(F, A, B)
    h = 1e-7
    for i in range(len(F)):
        for r in range(2):
            for c in range(2):
                Fp, Fm = F[i].copy(), F[i].copy()
                Fp[r, c] += h
                Fm[r, c] -= h
                dp, _ = kernels.dist2_two_wells(Fp[None], A, B)
                dm, _ = kernels.dist2_two_wells(Fm[None], A, B)
                fd = (dp[0] - dm[0]) / (2.0 * h)
                assert grad[i, r, c] == pytest.approx(fd, abs=2e-6)


def test_tie_resolves_to_well_a():
    A, B = well_matrices(WellSpec("k2", 0.2))
    d2, which = kernels.dist2_two_wells(np.stack([A, B]), A, B)
    assert which[0] == 0 and which[1] == 1
    assert d2 == pytest.approx([0.0, 0.0], abs=1e-12)


def test_backend_name_reports():
    assert kernels.backend_name() in ("cython", "numpy")


_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _orbit_terms_einsum(F, G):
    """(d2, p, q, r) of F against SO(2)G, written with einsum."""
    p = np.einsum("nij,ij->n", F, G)
    q = np.einsum("nij,ij->n", F, _J @ G)
    r = np.hypot(p, q)
    f2 = np.einsum("nij,nij->n", F, F)
    d2 = f2 + float(np.sum(G * G)) - 2.0 * r
    np.maximum(d2, 0.0, out=d2)
    return d2, p, q, r


def _grad_reference(F, A, B):
    """The per-point (n, 2, 2) select formulation of the kernel gradient."""
    d2a, pa, qa, ra = _orbit_terms_einsum(F, A)
    d2b, pb, qb, rb = _orbit_terms_einsum(F, B)
    which = (d2b < d2a).astype(np.uint8)
    sel_p = np.where(which, pb, pa)
    sel_q = np.where(which, qb, qa)
    sel_r = np.where(which, rb, ra)
    G = np.where(which[:, None, None], B[None], A[None])
    JG = np.where(which[:, None, None], (_J @ B)[None], (_J @ A)[None])
    grad = 2.0 * F
    ok = sel_r > 0.0
    coef = np.zeros_like(sel_r)
    coef[ok] = 2.0 / sel_r[ok]
    grad -= coef[:, None, None] * (sel_p[:, None, None] * G + sel_q[:, None, None] * JG)
    grad[~ok] = 2.0 * (F[~ok] - G[~ok])
    return grad


def test_numpy_gradient_kernel_matches_select_reference():
    rng = np.random.default_rng(3)
    for case, a in (("k1", 0.2), ("k2", 0.1), ("k2", 0.35)):
        A, B = well_matrices(WellSpec(case, a))
        # random points, both wells, r = 0 (F = 0) and A/B tie points
        special = np.stack([A, B, np.zeros((2, 2)), np.eye(2), 0.5 * (A + B)])
        F = np.concatenate([special, _batch(rng, 2000)])
        d2, grad = _kernels_np.dist2_two_wells_grad(F, A, B)
        d2_only, _ = _kernels_np.dist2_two_wells(F, A, B)
        np.testing.assert_array_equal(d2, d2_only)
        np.testing.assert_allclose(grad, _grad_reference(F, A, B), rtol=0, atol=1e-14)
        np.testing.assert_array_equal(grad[2], -2.0 * A)  # r = 0: 2 (F - A)


def test_entry_kernel_is_bit_identical_to_einsum_form():
    rng = np.random.default_rng(4)
    for case, a in (("k1", 0.2), ("k2", 0.1)):
        A, B = well_matrices(WellSpec(case, a))
        F = np.concatenate([np.stack([A, B, np.zeros((2, 2))]),
                            _batch(rng, 5000) * rng.uniform(0.01, 10.0, (5000, 1, 1))])
        d2a, *want_a = _orbit_terms_einsum(F, A)
        d2b, *want_b = _orbit_terms_einsum(F, B)
        d2, which, pqr = _kernels_np.nearest_well(F.reshape(-1, 4).T, A, B)
        np.testing.assert_array_equal(which, d2b < d2a)
        np.testing.assert_array_equal(d2, np.where(which, d2b, d2a))
        # the nearest well's (p, q, r)
        np.testing.assert_array_equal(pqr, np.where(which, np.stack(want_b), np.stack(want_a)))
        np.testing.assert_array_equal(_kernels_np.dist2_two_wells(F, A, B)[0], d2)


def _rotated_pair():
    """The k2 wells conjugated by a rotation: no entry is 0 or +-1."""
    Q = rotation(0.3)
    A, B = well_matrices(WellSpec("k2", 0.2))
    pair = (Q @ A @ Q.T, Q @ B @ Q.T)
    assert not np.isin(np.abs(np.stack(pair)), (0.0, 1.0)).any()
    return pair


_WELL_PAIRS = {f"{case}-{a}": well_matrices(WellSpec(case, a))
               for case in ("k1", "k2") for a in (0.05, 0.45)}
_WELL_PAIRS["rotated"] = _rotated_pair()


def _dense(f, A, B):
    d2, which, terms = dense_nearest_well(f, A, B)
    return d2, which, np.stack(dense_nearest_well_grad(f, which, terms, A, B))


def _specialized(f, A, B):
    d2, which, pqr = _kernels_np.nearest_well(f, A, B)
    d2, which = d2.copy(), which.copy()
    return d2, which, _kernels_np.nearest_well_grad(f, which, pqr, A, B)


@pytest.mark.parametrize("name", list(_WELL_PAIRS))
def test_specialized_kernel_matches_dense_form(name):
    """The kernel that leaves out the products by zero well entries and the
    multiplications by +-1 gives the dense entry form's values: random F,
    both wells, F = 0 (the r = 0 branch) and exact A/B ties."""
    A, B = _WELL_PAIRS[name]
    rng = np.random.default_rng(6)
    special = [A, B, np.zeros((2, 2)), np.eye(2), 0.5 * (A + B), 0.5 * (A + B).T]
    F = np.concatenate([np.stack(special), _batch(rng, 4000),
                        _batch(rng, 1000) * rng.uniform(1e-3, 1e3, (1000, 1, 1))])
    f = F.reshape(-1, 4).T.copy()
    d2, which, grad = _specialized(f, A, B)
    want_d2, want_which, want_grad = _dense(f, A, B)
    np.testing.assert_array_equal(d2, want_d2)
    np.testing.assert_array_equal(which, want_which)
    assert np.all(grad == want_grad)
    np.testing.assert_array_equal(grad[:, 2], -2.0 * A.ravel())  # r = 0: 2 (F - A)
    if name.startswith("k1"):
        # I is equidistant from the shear wells, to the last bit: a tie to A
        eye = np.eye(2).reshape(4, 1)
        assert dense_nearest_well(eye, A, A)[0] == dense_nearest_well(eye, B, B)[0]
        assert not which[3]


@pytest.mark.parametrize("name", list(_WELL_PAIRS))
def test_specialized_kernel_on_non_finite_entries(name):
    """With inf or NaN entries, d2 and ``which`` are the dense form's (d2 is
    NaN through |F|^2), and the gradient is NaN wherever the dense form's
    is, and equal to it elsewhere."""
    A, B = _WELL_PAIRS[name]
    rng = np.random.default_rng(7)
    F = _batch(rng, 3000)
    hit = rng.random(F.shape) < 0.3
    F[hit] = rng.choice([np.inf, -np.inf, np.nan], size=F.shape)[hit]
    f = F.reshape(-1, 4).T.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        d2, which, grad = _specialized(f, A, B)
        want_d2, want_which, want_grad = _dense(f, A, B)
    bad = ~np.isfinite(F).reshape(-1, 4).all(axis=1)
    assert bad.any() and not bad.all()
    assert np.isnan(d2[bad]).all()
    np.testing.assert_array_equal(d2, want_d2)  # NaN where the dense d2 is NaN
    np.testing.assert_array_equal(which, want_which)
    nan = np.isnan(want_grad)
    assert nan.any() and np.isnan(grad[nan]).all()
    assert np.all(grad[~nan] == want_grad[~nan])
