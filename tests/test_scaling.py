from collections import deque

import numpy as np
import pytest

from twowell.checks import sample_average_lemma_field
from twowell.scaling import (
    K1_REGIMES,
    HypothesisError,
    _regime_index,
    bound_k1,
    bound_k2,
    check_average_lemma,
    classify_regime,
    localize_stripes,
    min_energy_bound,
    phase_diagram,
    thin_domain_bound,
)


def test_bound_k1_frozen_value():
    b = bound_k1(0.1, 1e-6, 1.0, 1.0)
    assert b.branch == 0
    expect = 0.1 ** (4.0 / 3.0) * 1e-4 + 1e-7
    assert b.value == pytest.approx(expect, rel=1e-12)
    assert b.value == pytest.approx(4.7416e-6, rel=1e-4)


def test_bound_k1_limits():
    assert bound_k1(0.1, 1e6, 1.0, 1.0).branch == 2
    assert bound_k1(1e-9, 1e-3, 1.0, 1.0).value < 1e-11


def test_bound_k2_frozen_values():
    b = bound_k2(0.1, 1e-6, 1.0, 1.0)
    assert b.branch == 0
    assert b.value == pytest.approx(1.1e-6, rel=1e-6)
    b = bound_k2(0.1, 1.0, 1.0, 1.0)
    assert b.branch == 1
    assert b.value == pytest.approx(0.01, rel=1e-12)


def test_bound_k2_first_term_L_homogeneity():
    t1 = bound_k2(0.1, 1e-8, 1.0, 1.0).branch_terms[0][0]
    t2 = bound_k2(0.1, 1e-8, 32.0, 1.0).branch_terms[0][0]
    assert t2 / t1 == pytest.approx(32.0 ** 0.2, rel=1e-12)


def test_bounds_reject_bad_parameters():
    with pytest.raises(ValueError):
        bound_k1(1.5, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        bound_k2(0.1, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        min_energy_bound("k9", 0.1, 1.0, 1.0, 1.0)


def test_bounds_monotone_in_each_parameter():
    rng = np.random.default_rng(8)
    for fn in (bound_k1, bound_k2):
        for _ in range(200):
            a = rng.uniform(0.02, 0.8)
            eps = 10.0 ** rng.uniform(-8, 0)
            L = 10.0 ** rng.uniform(-1, 1)
            H = 10.0 ** rng.uniform(-1, 1)
            base = fn(a, eps, L, H).value
            s = 1.0 + rng.uniform(0.01, 0.5)
            assert fn(min(a * s, 0.99), eps, L, H).value >= base - 1e-15
            assert fn(a, eps * s, L, H).value >= base - 1e-15
            assert fn(a, eps, L * s, H).value >= base - 1e-15
            assert fn(a, eps, L, H * s).value >= base - 1e-15


def test_scaling_homogeneity_and_regime_invariance():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = rng.uniform(0.05, 0.5)
        eps = 10.0 ** rng.uniform(-7, -1)
        L = 10.0 ** rng.uniform(-0.5, 0.5)
        H = 10.0 ** rng.uniform(-0.5, 0.5)
        s = 10.0 ** rng.uniform(-2, 2)
        for case, fn in (("k1", bound_k1), ("k2", bound_k2)):
            b1 = fn(a, eps, L, H)
            b2 = fn(a, s * eps, s * L, s * H)
            assert b2.value == pytest.approx(s * s * b1.value, rel=1e-10)
            assert b2.branch == b1.branch
            assert classify_regime(case, a, s * eps, s * L, s * H) == \
                classify_regime(case, a, eps, L, H)


def test_regime_examples():
    assert classify_regime("k1", 0.1, 1e-6, 1.0, 1.0) == "BR"
    assert classify_regime("k2", 0.1, 1.0, 1.0, 1.0) == "A"
    assert classify_regime("k1", 0.1, 1e-6, 1.0, 1e-3) == "HL"
    assert classify_regime("k1", 0.1, 1.0, 1e3, 10.0 ** 3.6) == "VB1"
    assert classify_regime("k1", 0.1, 1.0, 2e3, 1e7) == "VB2"
    assert classify_regime("k1", 0.1, 1.0, 1e2, 1e6) == "VL"


def test_thin_domain_bound_values():
    v = thin_domain_bound("k1", 0.1, 1e-2, 1.0, 1e-4)
    assert v == pytest.approx(1e-6, rel=1e-12)
    assert thin_domain_bound("k2", 0.3, 0.5, 2.0, 3.0) == \
        thin_domain_bound("k2", 0.3, 0.5, 3.0, 2.0)
    assert thin_domain_bound("k1", 0.0, 1.0, 1.0, 1.0) == 0.0


def _components(regimes, label):
    ny, nx = regimes.shape
    seen = np.zeros((ny, nx), bool)
    comps = 0
    for j in range(ny):
        for i in range(nx):
            if regimes[j, i] == label and not seen[j, i]:
                comps += 1
                queue = deque([(j, i)])
                seen[j, i] = True
                while queue:
                    y, x = queue.popleft()
                    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        yy, xx = y + dy, x + dx
                        if (0 <= yy < ny and 0 <= xx < nx and not seen[yy, xx]
                                and regimes[yy, xx] == label):
                            seen[yy, xx] = True
                            queue.append((yy, xx))
    return comps


def test_phase_diagram_k2_labels_and_geometry():
    pd = phase_diagram("k2", 0.1, (0.5, 6.0), (0.5, 6.0), 101)
    assert pd.labels() == {"A", "BR", "HL"}
    # lower-left corner is austenite
    assert pd.regimes[0, 0] == "A"
    for lab in ("A", "BR", "HL"):
        assert _components(pd.regimes, lab) == 1


def test_phase_diagram_k1_taxonomy_and_A_boundary():
    pd = phase_diagram("k1", 0.1, (0.5, 6.0), (0.5, 6.0), 200)
    labels = pd.labels()
    assert labels == {"A", "BR", "HL", "VB1", "VB2", "VL"}
    # containment: L/eps < 1/alpha or H/eps < 1/alpha is always austenite
    for j, lh in enumerate(pd.log10_H_over_eps):
        for i, ll in enumerate(pd.log10_L_over_eps):
            if 10.0 ** ll < 10.0 or 10.0 ** lh < 10.0:
                assert pd.regimes[j, i] == "A"
    # the far-edge transition out of A happens within one grid cell of 1/alpha
    step = pd.log10_L_over_eps[1] - pd.log10_L_over_eps[0]
    top = pd.regimes[-1, :]
    k = next(i for i in range(len(top)) if top[i] != "A")
    assert abs(pd.log10_L_over_eps[k] - 1.0) <= step + 1e-12
    right = pd.regimes[:, -1]
    k = next(j for j in range(len(right)) if right[j] != "A")
    assert abs(pd.log10_H_over_eps[k] - 1.0) <= step + 1e-12
    # connected regions (VB1 is a thin band that may pinch at grid resolution)
    for lab in ("A", "BR", "HL", "VB2", "VL"):
        assert _components(pd.regimes, lab) == 1
    assert _components(pd.regimes, "VB1") <= 3


def _oracle_bound(case, alpha, eps, L, H):
    """The bounds as separate scalar formulas: (value, branch, terms)."""
    if case == "k1":
        a43e23 = alpha ** (4.0 / 3.0) * eps ** (2.0 / 3.0)
        terms = (
            (a43e23 * L ** (1.0 / 3.0) * H, alpha * eps * L),
            (a43e23 * L * H ** (1.0 / 3.0), alpha ** 4 * L * H, alpha * eps * H),
            (alpha ** 2 * L * H,),
        )
    else:
        terms = (
            (alpha ** 1.2 * eps ** 0.8 * L ** 0.2 * H, alpha * eps * L),
            (alpha ** 2 * L * H,),
        )
    sums = [sum(t) for t in terms]
    branch = min(range(len(terms)), key=lambda i: sums[i])
    return sums[branch], branch, terms


def _oracle_regime(case, branch, all_terms):
    terms = all_terms[branch]
    if case == "k2":
        if branch == 1:
            return "A"
        return "BR" if terms[0] >= terms[1] else "HL"
    if branch == 2:
        return "A"
    if branch == 0:
        return "BR" if terms[0] >= terms[1] else "HL"
    dominant = max(range(3), key=lambda i: (terms[i], -i))
    return ("VB1", "VB2", "VL")[dominant]


@pytest.mark.parametrize("case, alpha", [("k1", 0.1), ("k2", 0.1), ("k1", 0.3)])
def test_phase_diagram_matches_scalar_loop(case, alpha):
    n = 200
    pd = phase_diagram(case, alpha, (0.5, 6.0), (0.5, 6.0), n)
    vals = np.empty((n, n))
    regimes = np.empty((n, n), dtype=object)
    for j, lh in enumerate(pd.log10_H_over_eps):
        H = 10.0 ** lh
        for i, ll in enumerate(pd.log10_L_over_eps):
            value, branch, terms = _oracle_bound(case, alpha, 1.0, 10.0 ** ll, H)
            vals[j, i] = value
            regimes[j, i] = _oracle_regime(case, branch, terms)
    assert pd.bound_values.tobytes() == vals.tobytes()
    assert pd.regimes.dtype == object and pd.regimes.tolist() == regimes.tolist()


def test_scalar_bounds_and_regimes_match_oracle():
    rng = np.random.default_rng(21)
    for case in ("k1", "k2"):
        for _ in range(300):
            a = rng.uniform(0.02, 0.8)
            eps = 10.0 ** rng.uniform(-8, 0)
            L = 10.0 ** rng.uniform(-1, 1)
            H = 10.0 ** rng.uniform(-1, 1)
            value, branch, terms = _oracle_bound(case, a, eps, L, H)
            b = min_energy_bound(case, a, eps, L, H)
            assert (b.value, b.branch, b.branch_terms) == (value, branch, terms)
            assert classify_regime(case, a, eps, L, H) == _oracle_regime(case, branch, terms)


def test_regime_index_tie_rules_match_oracle():
    # Exact ties do not occur on the phase grids: addends drawn from {0, 1, 2}
    # tie often, and every branch is drawn.
    rng = np.random.default_rng(5)
    for case, shape in (("k1", (2, 3, 1)), ("k2", (2, 1))):
        terms = tuple(tuple(rng.integers(0, 3, 500).astype(float) for _ in range(m))
                      for m in shape)
        branch = rng.integers(0, len(shape), 500)
        index = _regime_index(case, branch, terms)
        for i in range(500):
            point = tuple(tuple(float(t[i]) for t in ts) for ts in terms)
            assert K1_REGIMES[index[i]] == _oracle_regime(case, int(branch[i]), point)


def test_phase_diagram_resolution_guard():
    with pytest.raises(ValueError):
        phase_diagram("k2", 0.1, (0.0, 1.0), (0.0, 1.0), 1)


def test_localize_stripes_uniform_density():
    grid = np.ones((40, 40))
    sp = localize_stripes(grid, 0.0 * grid, grid, 0.25, 1.0, 1.0)
    assert sp.s == 0.0 and sp.s_prime == 0.0
    assert sp.energy_horizontal == pytest.approx(0.25, rel=1e-12)
    assert sp.energy_intersection == pytest.approx(0.0625, rel=1e-12)


def test_localize_stripes_avoids_concentration():
    # with lam/H < 1/c a stripe hoarding the energy fails its allowance
    grid = np.full((128, 128), 1e-9)
    grid[:4, :4] = 100.0  # energy piled into the lower-left corner stripe
    lam = 1.0 / 32.0
    sp = localize_stripes(grid, 0.0 * grid, np.ones_like(grid), lam, 1.0, 1.0)
    assert sp.s >= lam and sp.s_prime >= lam


def test_localize_stripes_whole_domain_stripe():
    grid = np.ones((32, 32))
    sp = localize_stripes(grid, 0.0 * grid, grid, 1.0, 1.0, 1.0)
    assert sp.s == 0.0 and sp.s_prime == 0.0
    assert sp.energy_horizontal == pytest.approx(1.0, rel=1e-12)


def test_localize_stripes_validates_lambda():
    with pytest.raises(ValueError):
        localize_stripes(np.ones((4, 4)), np.zeros((4, 4)), np.ones((4, 4)),
                         2.0, 1.0, 1.0)


def test_average_lemma_trivial_equality():
    n = 128
    v = np.tile(np.array([0.0, 1.0]), (n, 1))
    d = np.zeros(n)
    rep = check_average_lemma(v, d, np.array([0.0, 1.0]), 2.0)
    assert rep.lhs_parallel == 0.0 and rep.rhs_parallel == 0.0
    assert rep.lhs_perp == 0.0 and rep.rhs_perp == 0.0
    assert rep.holds


def test_average_lemma_sampled_fields():
    for seed in (0, 12345):
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            v, d, e, area = sample_average_lemma_field(rng)
            rep = check_average_lemma(v, d, e, area)
            assert rep.holds


def test_average_lemma_hypothesis_violations_raise():
    n = 32
    e = np.array([1.0, 0.0])
    v = np.tile(np.array([2.0, 0.0]), (n, 1))  # mean v.e = 2, not 1
    with pytest.raises(HypothesisError):
        check_average_lemma(v, np.zeros(n), e, 1.0)
    v = np.tile(np.array([1.0, 0.9]), (n, 1))  # |v| > 1 with d = 0
    with pytest.raises(HypothesisError):
        check_average_lemma(v, np.zeros(n), e, 1.0)
    with pytest.raises(HypothesisError):
        check_average_lemma(np.tile(e, (n, 1)), -np.ones(n), e, 1.0)
