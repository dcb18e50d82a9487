import numpy as np
import pytest

from twowell import _kernels_np
from twowell import kernels
from twowell.wells import WellSpec, dist_to_wells, rotation, well_matrices

from fem_oracles import nearest_well as dense_nearest_well
from fem_oracles import nearest_well_grad as dense_nearest_well_grad


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
    assert kernels.backend_name() == "numpy"


def test_kernel_properties_on_random_batches():
    """Random case, alpha, size and scale of a batch: d2 is invariant under
    F -> RF, the rotated wells QA and QB sit at d2 ~ 0 on their own well,
    ``which`` picks B only where B is strictly nearer (exact ties go to A),
    and the gradient agrees with central differences away from the kinks
    (ties and r = 0).  d2 = |F|^2 + |G|^2 - 2r cancels, so its tolerances
    are relative to s^2 = |F|^2 + max |G|^2."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(case=st.sampled_from(["k1", "k2"]), alpha=st.floats(0.05, 0.45),
                      seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
                      log_scale=st.floats(-2.0, 2.0), phi=st.floats(-np.pi, np.pi),
                      psi=st.floats(-np.pi, np.pi))
    def check(case, alpha, seed, n, log_scale, phi, psi):
        A, B = well_matrices(WellSpec(case, alpha))
        R, Q = rotation(phi), rotation(psi)
        F = np.concatenate([_batch(np.random.default_rng(seed), n) * 10.0 ** log_scale,
                            np.stack([Q @ A, Q @ B])])
        f2 = np.einsum("nij,nij->n", F, F)
        gA, gB = float(np.sum(A * A)), float(np.sum(B * B))
        s2 = f2 + max(gA, gB)
        d2, which = kernels.dist2_two_wells(F, A, B)
        assert np.all(np.abs(kernels.dist2_two_wells(R @ F, A, B)[0] - d2) <= 1e-14 * s2)
        assert np.all(d2[-2:] <= 1e-14 * s2[-2:]) and list(which[-2:]) == [0, 1]

        d2a, tie = kernels.dist2_two_wells(F, A, A)
        d2b, _ = kernels.dist2_two_wells(F, B, B)
        assert not tie.any()
        np.testing.assert_array_equal(which, d2b < d2a)
        np.testing.assert_array_equal(d2, np.minimum(d2a, d2b))

        _, grad = kernels.dist2_two_wells_grad(F, A, B)
        s = np.sqrt(s2)
        h = 1e-6 * s
        fd = np.empty_like(F)
        for k in range(4):
            E = np.zeros((2, 2))
            E.flat[k] = 1.0
            step = h[:, None, None] * E
            fd[:, k // 2, k % 2] = (kernels.dist2_two_wells(F + step, A, B)[0]
                                    - kernels.dist2_two_wells(F - step, A, B)[0]) / (2.0 * h)
        # d2 = |F|^2 + |G|^2 - 2r on the nearest well G
        r = (f2 + np.where(which, gB, gA) - d2) / 2.0
        far = (np.abs(d2a - d2b) > 100.0 * h * s) & (r > 1e3 * h * np.sqrt(max(gA, gB)))
        err = np.abs(grad - fd).reshape(-1, 4).max(axis=1)
        assert np.all(err[far] <= 1e-6 * s[far])

    check()


_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _orbit_terms_einsum(F, G):
    """(d2, p, q, r) of F against SO(2)G, written with einsum."""
    p = np.einsum("nij,ij->n", F, G)
    q = np.einsum("nij,ij->n", F, _J @ G)
    r = np.sqrt(p * p + q * q)
    f2 = np.einsum("nij,nij->n", F, F)
    d2 = f2 + float(np.sum(G * G)) - 2.0 * r
    np.maximum(d2, 0.0 * r, out=d2)
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


@pytest.mark.parametrize("name", list(_WELL_PAIRS))
def test_overflowing_orbit_terms_never_give_a_false_distance(name):
    """F = t R G on a well G, R a rotation: p*p + q*q = t^2 |G|^4 overflows
    once t |G|^2 passes sqrt(max float), at |F| of about 1e154.  Where
    |F|^2 = t^2 |G|^2 overflows as well, d2 is NaN or inf, never finite.
    Between the two, d2 - 2r is -inf on G's orbit, which a clip at 0 alone
    would report as d2 = 0: d2 is NaN there, or the other well's finite d2,
    which is |F|^2 up to rounding.  Below the overflow d2 is finite."""
    A, B = _WELL_PAIRS[name]
    big = np.sqrt(np.finfo(float).max)
    R = np.stack([rotation(phi) for phi in np.linspace(-3.0, 3.0, 7)])
    for G in (A, B):
        gg = float(np.sum(G * G))
        below = np.geomspace(0.5, 0.999, 8) * big / gg
        window = np.geomspace(1.001 * big / gg, 0.999 * big / np.sqrt(gg), 8)
        above = np.geomspace(1.001 * big / np.sqrt(gg), 1e300, 8)
        d2 = {}
        for label, t in (("below", below), ("window", window), ("above", above)):
            F = (t[:, None, None, None] * (R @ G)[None]).reshape(-1, 2, 2)
            with np.errstate(over="ignore", invalid="ignore"):
                d2[label], _ = _kernels_np.dist2_two_wells(F, A, B)
                dense, _, _ = dense_nearest_well(F.reshape(-1, 4).T.copy(), A, B)
            np.testing.assert_array_equal(d2[label], dense)
        assert np.isfinite(d2["below"]).all()
        f2 = np.repeat(window * window * gg, len(R))
        assert np.all(~np.isfinite(d2["window"]) | (d2["window"] >= 0.5 * f2))
        assert not np.isfinite(d2["above"]).any()


@pytest.mark.parametrize("case", ["k1", "k2"])
def test_mirror_conjugation_keeps_every_bit_of_d2(case):
    # The elastic term keys a cell under (CL, Q) and under (S CL, Q S), S =
    # diag(-1, 1), as one entry: d2(S F S) must be d2(F) bit for bit.  S F S
    # negates F's off-diagonal entries; in case k2 S fixes both wells, in k1
    # it swaps them.
    rng = np.random.default_rng(21 if case == "k1" else 22)
    n = 20000
    F = rng.choice([-1.0, 1.0], (n, 2, 2)) * 10.0 ** rng.uniform(-8.0, 3.0, (n, 2, 2))
    # Entries near the wells' own, and exact and signed zeros.
    F[: n // 4] = rng.choice([-1.0, 0.0, 1.0], (n // 4, 2, 2)) + F[: n // 4] * 1e-3
    zero = rng.random((n, 2, 2)) < 0.2
    F[zero] = rng.choice([0.0, -0.0], zero.sum())
    SFS = F.copy()
    np.negative(SFS[:, 0, 1], out=SFS[:, 0, 1])
    np.negative(SFS[:, 1, 0], out=SFS[:, 1, 0])
    for alpha in rng.uniform(0.01, 0.99, 5):
        A, B = well_matrices(WellSpec(case, float(alpha)))
        d2, _ = kernels.dist2_two_wells(F, A, B)
        assert np.all(np.isfinite(d2))
        assert np.array_equal(kernels.dist2_two_wells(SFS, A, B)[0], d2)
