import math
import warnings

import numpy as np
import pytest

from twowell import microstructure
from twowell.energy import total_energy
from twowell.families import K2CellPiece, ScalarProfilePiece
from twowell.microstructure import (
    best_construction,
    branched_constructions,
    branching_schedule,
    horizontal_branched,
    k1_boundary_cell,
    k1_cell,
    k2_boundary_cell,
    k2_cell,
    laminate,
    vertical_branched_k1,
)
from twowell.piecewise import (
    GraphJump,
    PiecewiseDeformation,
    Rect,
    coverage_check,
    identity_deformation,
)
from twowell.profiles import sawtooth, smooth_step
from twowell.wells import CASE_K1, CASE_K2, WellSpec, dist_to_wells

from piecewise_oracles import (
    edge_points,
    located,
    oracle_coverage_check,
    oracle_locate,
    oracle_vertical_jump_groups,
)


def test_sawtooth_identities():
    assert float(sawtooth(1.0, 0.0)) == 0.0
    assert float(sawtooth(1.0, 0.25)) == 0.25
    assert float(sawtooth(1.0, 0.5)) == 0.0
    ts = np.linspace(-3.0, 3.0, 601)
    for h in (0.5, 1.0, 2.0):
        z = sawtooth(h, ts)
        assert np.all(np.abs(z) <= h / 4.0 + 1e-15)
        np.testing.assert_allclose(sawtooth(h, ts + h), z, atol=1e-12)
        # |slope| = 1 away from the kinks
        step = 1e-7
        sl = (sawtooth(h, ts + step) - sawtooth(h, ts - step)) / (2.0 * step)
        kink = np.minimum(np.abs(z - h / 4.0), np.abs(z + h / 4.0)) < 2 * step
        assert np.allclose(np.abs(sl[~kink]), 1.0, atol=1e-6)


def test_quintic_gamma_values():
    g, d1, d2, _ = smooth_step(np.array([0.0, 1.0, 0.5]))
    np.testing.assert_allclose(g, [0.0, 1.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(d1[:2], 0.0, atol=1e-15)
    np.testing.assert_allclose(d2[:2], 0.0, atol=1e-15)


def test_cell_preconditions():
    with pytest.raises(ValueError):
        k2_cell((0.0, 0.0), 0.5, 0.6, 0.1)  # h > ell
    with pytest.raises(ValueError):
        k1_boundary_cell((0.0, 0.0), 1.0, 2.0, 0.1)
    # The stretch-case cell layout belongs to the subclass alone.
    with pytest.raises(ValueError):
        ScalarProfilePiece(1, "cell", 2, 1.0, 0.5, 0.1)
    assert K2CellPiece(1, "cell", 2, 1.0, 0.5, 0.1).tag() == "k2cell"


def test_k1_cell_exact_wells_and_trace():
    a = 0.25
    d = k1_cell((0.0, 0.0), 1.0, 0.25, a)
    B1 = np.array([[1.0, a], [0.0, 1.0]])
    for p in ([0.4, 0.005], [0.5, 0.124], [0.6, 0.245]):
        _, du = d.evaluate(np.array(p))
        np.testing.assert_array_equal(du, B1)
    ys = np.linspace(0.0, 0.25, 65)
    u, _ = d.evaluate(np.column_stack([np.ones_like(ys), ys]))
    expect = np.column_stack([1.0 + a * sawtooth(0.25, ys), ys])
    assert np.abs(u - expect).max() < 1e-14


def test_k1_boundary_cell_well_regions():
    a = 0.25
    h = 0.25
    d = k1_boundary_cell((0.0, 0.0), 1.0, h, a)
    A1 = np.array([[1.0, -a], [0.0, 1.0]])
    B1 = np.array([[1.0, a], [0.0, 1.0]])
    spec = WellSpec(CASE_K1, a)
    # deep in B', A and B'' the gradient sits exactly in a well
    _, du = d.evaluate(np.array([0.9, 0.01]))
    np.testing.assert_array_equal(du, B1)
    _, du = d.evaluate(np.array([0.9, h / 2.0]))
    np.testing.assert_array_equal(du, A1)
    _, du = d.evaluate(np.array([0.9, h - 0.01]))
    np.testing.assert_array_equal(du, B1)
    assert dist_to_wells(du, spec).distance == pytest.approx(0.0, abs=1e-12)


def test_all_cells_pass_coverage():
    for d in (k2_cell((0.0, 0.0), 1.0, 0.25, 0.3),
              k2_boundary_cell((0.0, 0.0), 1.0, 0.25, 0.3),
              k1_cell((0.0, 0.0), 1.0, 0.25, 0.3),
              k1_cell((0.0, 0.0), 1.0, 0.25, 0.3, gamma_kind="linear"),
              k1_boundary_cell((0.0, 0.0), 1.0, 0.25, 0.3)):
        rep = coverage_check(d, boundary_tol=None)
        assert rep.ok
        assert rep.continuity_max < 1e-12


def test_gradient_deviation_from_identity_bounded():
    # every construction stays within c alpha of the identity gradient
    rng = np.random.default_rng(31)
    for a in (0.1, 0.3):
        worst = 0.0
        for d in (k2_cell((0.0, 0.0), 1.0, 0.25, a),
                  k2_boundary_cell((0.0, 0.0), 1.0, 0.25, a),
                  k1_cell((0.0, 0.0), 1.0, 0.25, a),
                  k1_boundary_cell((0.0, 0.0), 1.0, 0.25, a)):
            pts = np.column_stack([rng.uniform(0, 1, 500), rng.uniform(0, 0.25, 500)])
            _, du = d.evaluate(pts)
            dev = np.linalg.norm(du - np.eye(2), axis=(1, 2)).max()
            worst = max(worst, dev / a)
        assert worst <= 2.0


def test_laminate_requires_alignment():
    with pytest.raises(ValueError):
        laminate(Rect(0.0, 0.0, 1.0, 1.0), 0.3, 0.1, CASE_K2)


@pytest.mark.parametrize("kind", ["linear", "cubic"])
def test_k2_constructions_refuse_other_ramps(kind):
    # The k2 cell's horizontal corrector is built on the quintic ramp: any
    # other kind is refused, not replaced by the quintic.
    spec = WellSpec(CASE_K2, 0.1)
    with pytest.raises(ValueError, match="quintic"):
        horizontal_branched(spec, 1e-4, Rect(0.0, 0.0, 1.0, 1.0), gamma_kind=kind)
    with pytest.raises(ValueError, match="quintic"):
        best_construction(spec, 1e-4, 1.0, 1.0, gamma_kind=kind)


def test_schedule_frozen_examples():
    s = branching_schedule(CASE_K2, 0.1, 1e-6, 1.0, 1.0)
    assert s.N == 14  # ceil(10 + 4)
    assert s.theta == pytest.approx(2.0 ** -1.25)
    s1 = branching_schedule(CASE_K1, 0.1, 1e-6, 1.0, 1.0)
    assert s1.N == math.ceil(0.1 ** (1 / 3) * 1e2 + 4.0) == 51
    assert s1.theta == pytest.approx(1.0 / 3.0)


def test_default_N_is_at_least_one_on_thin_domains():
    # The default N's target is at most 1e-9 here, which rounded up to 0.
    assert branching_schedule(CASE_K2, 0.1, 1e-4, 1.0, 1e-11).N == 1
    with pytest.raises(ValueError, match="N must be a positive integer"):
        branching_schedule(CASE_K2, 0.1, 1e-4, 1.0, 1e-11, N=0)


def test_schedule_invariants():
    for case, a, eps, L, H in ((CASE_K2, 0.1, 1e-6, 1.0, 1.0),
                               (CASE_K1, 0.2, 1e-5, 2.0, 0.5),
                               (CASE_K2, 0.05, 1e-7, 0.5, 2.0)):
        s = branching_schedule(case, a, eps, L, H)
        assert len(s.x) == len(s.h) == len(s.ell) == s.tau + 1
        assert s.H / s.N <= (1.0 - s.theta) * s.L / 2.0 + 1e-12
        for i in range(s.tau + 1):
            assert s.h[i] <= s.ell[i] + 1e-15
        if s.tau >= 1:
            assert s.h[s.tau] <= s.ell[s.tau] <= 2.0 * s.h[s.tau] + 1e-15
        # the next refinement would violate h <= ell
        h_next = s.H / (2 ** (s.tau + 1) * s.N)
        ell_next = s.theta ** (s.tau + 1) * (1 - s.theta) * s.L / 2.0
        assert h_next > ell_next


def test_degenerate_schedule_assembles_boundary_layer_only():
    s = branching_schedule(CASE_K2, 0.1, 1e-6, 1.0, 1.0, N=3)
    assert s.degenerate and s.tau == -1
    d = horizontal_branched(WellSpec(CASE_K2, 0.1), 1e-6, Rect(0.0, 0.0, 1.0, 1.0), N=3)
    assert d.meta["degenerate_schedule"]
    rep = coverage_check(d)
    assert rep.ok


def test_schedule_beyond_the_float_range_is_refused():
    # At theta = 0.4999 the levels run on until 2^i N overflows a float
    # (i = 1022 here); that was an OverflowError out of the builder.
    assert branching_schedule(CASE_K1, 0.25, 1e-2, 1.0, 1.0, theta=0.499).tau == 280
    with pytest.raises(ValueError, match="leaves the float range at level 1022"):
        branching_schedule(CASE_K1, 0.25, 1e-2, 1.0, 1.0, theta=0.4999)


def test_assembly_boundary_trace_and_stripe_lines():
    for case in (CASE_K2, CASE_K1):
        spec = WellSpec(case, 0.1)
        s = branching_schedule(case, 0.1, 1e-4, 1.0, 1.0)
        d = horizontal_branched(spec, 1e-4, Rect(0.0, 0.0, 1.0, 1.0))
        rep = coverage_check(d)
        assert rep.ok
        assert rep.boundary_max < 1e-12
        ys = np.linspace(0.0, 1.0, 257)
        for i in (0, s.tau):
            pts = np.column_stack([np.full_like(ys, s.x[i]), ys])
            u, _ = d.evaluate(pts)
            saw = 0.1 * sawtooth(s.h[i], ys)
            expect = (np.column_stack([pts[:, 0], ys + saw]) if case == CASE_K2
                      else np.column_stack([pts[:, 0] + saw, ys]))
            assert np.abs(u - expect).max() < 1e-13


def test_assembly_cell_count_formula():
    s = branching_schedule(CASE_K2, 0.1, 1e-5, 1.0, 1.0)
    d = horizontal_branched(WellSpec(CASE_K2, 0.1), 1e-5, Rect(0.0, 0.0, 1.0, 1.0))
    expect = 2 * (sum(s.N * 2 ** i for i in range(s.tau)) + s.N * 2 ** s.tau)
    assert d.meta["lemma_cells"] == expect
    # every lemma cell contributes five analytic pieces
    assert d.cell_count() == 5 * expect


def test_vertical_construction_orientation_and_preference():
    spec = WellSpec(CASE_K1, 0.1)
    dom = Rect(0.0, 0.0, 0.05, 1.0)
    dv = vertical_branched_k1(spec, 1e-6, dom)
    assert dv.domain == dom
    rep = coverage_check(dv)
    assert rep.ok and rep.boundary_max < 1e-12
    with pytest.raises(ValueError):
        vertical_branched_k1(WellSpec(CASE_K2, 0.1), 1e-6, dom)


def test_best_construction_selection():
    spec2 = WellSpec(CASE_K2, 0.1)
    _, _, label = best_construction(spec2, 0.5, 1.0, 1.0)
    assert label == "identity"
    spec1 = WellSpec(CASE_K1, 0.1)
    _, _, label = best_construction(spec1, 1e-6, 1.0, 1.0)
    assert label == "branched-horizontal"
    _, _, label = best_construction(spec1, 1e-6, 0.05, 1.0)
    assert label == "branched-vertical"


def test_best_construction_leaves_out_totals_that_are_not_finite():
    # At L = 1e-200 the horizontal candidate's total is not finite.  It is
    # named in a warning and not compared, and its NaN and overflowing
    # terms raise no RuntimeWarning.
    spec = WellSpec(CASE_K2, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, b, label = best_construction(spec, 1e-4, 1e-200, 1.0)
        horizontal = total_energy(
            horizontal_branched(spec, 1e-4, Rect(0.0, 0.0, 1e-200, 1.0)), spec, 1e-4)
        # No total is finite: the identity is returned with its own warning.
        _, huge, huge_label = best_construction(spec, 1e-4, 1e200, 1e200)
    assert label == "identity" and math.isfinite(b.total)
    (warning,) = b.warnings
    assert "branched-horizontal" in warning and "not finite" in warning
    assert not math.isfinite(horizontal.total)
    assert any(w.endswith("quadrature is not finite") for w in horizontal.warnings)
    assert huge_label == "identity" and huge.total == math.inf
    assert huge.warnings[0] == "cell quadrature is not finite"
    assert not any("candidate identity" in w for w in huge.warnings)


def _best_construction_oracle(spec, eps, L, H):
    """One ``total_energy`` per candidate, the cheapest kept (first on ties)."""
    dom = Rect(0.0, 0.0, L, H)
    cands = [identity_deformation(dom), horizontal_branched(spec, eps, dom)]
    if spec.case == CASE_K1:
        cands.append(vertical_branched_k1(spec, eps, dom))
    best = None
    for cand in cands:
        b = total_energy(cand, spec, eps)
        if best is None or b.total < best[1].total:
            best = (cand.meta["label"], b)
    return best


@pytest.mark.parametrize("case,eps,aspect,alpha", [
    (CASE_K1, 1e-7, 1.0, 0.1), (CASE_K1, 1e-5, 0.25, 0.2), (CASE_K1, 1e-3, 4.0, 0.05),
    (CASE_K1, 1e-4, 2.0, 0.1), (CASE_K2, 1e-6, 1.0, 0.2), (CASE_K2, 1e-3, 0.5, 0.05),
    (CASE_K2, 1e-7, 4.0, 0.1)])
def test_best_construction_matches_per_candidate_loop(case, eps, aspect, alpha):
    # Points of the acceptance grid (tests/test_acceptance.py, criterion 5).
    spec = WellSpec(case, alpha)
    L, H = math.sqrt(aspect), 1.0 / math.sqrt(aspect)
    _, b, label = best_construction(spec, eps, L, H)
    assert repr((label, b)) == repr(_best_construction_oracle(spec, eps, L, H))


def test_best_construction_is_scale_invariant():
    # E(l eps, l L, l H) = l^2 E(eps, L, H): elastic and total scale by l^2,
    # both TV terms by l, with the same winner, N and tau.  Powers of two
    # scale every float exactly.  At other l the total and the TV terms
    # agree within 1e-12; the elastic term alone is not held to it, since it
    # can be a few percent of the total and moves by its rounding floor (1.4e-12
    # relative at the second example, whose total moves by 5.4e-14).
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    labels = set()
    exact = (("elastic", 2), ("tv_bulk", 1), ("tv_jump", 1), ("total", 2))

    @hypothesis.settings(max_examples=16, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(case=st.sampled_from([CASE_K1, CASE_K2]),
                      alpha=st.floats(0.05, 0.45),
                      log_eps=st.floats(-7.0, -2.0),
                      log_L=st.floats(math.log(0.03), math.log(4.0)),
                      log_H=st.floats(math.log(0.25), math.log(4.0)),
                      theta=st.floats(0.26, 0.45))
    @hypothesis.example(case=CASE_K1, alpha=0.1, log_eps=-6.0, log_L=math.log(0.05),
                        log_H=0.0, theta=1.0 / 3.0)  # the vertical construction wins
    @hypothesis.example(case=CASE_K1, alpha=0.125, log_eps=-7.0, log_L=0.125,
                        log_H=1.00390625, theta=0.375)
    # Draws whose theta and eps are constants hypothesis mined from the loaded
    # modules, so whether they are drawn depends on what the run imported.
    @hypothesis.example(case=CASE_K2, alpha=0.2, log_eps=-3.0, log_L=math.log(4.0),
                        log_H=math.log(4.0), theta=0.3)
    @hypothesis.example(case=CASE_K2, alpha=0.2, log_eps=-3.0, log_L=math.log(4.0),
                        log_H=math.log(4.0), theta=1.0 / 3.0)
    @hypothesis.example(case=CASE_K2, alpha=0.2, log_eps=-2.00001, log_L=math.log(4.0),
                        log_H=math.log(4.0), theta=0.3)
    @hypothesis.example(case=CASE_K2, alpha=0.2, log_eps=-2.00001, log_L=math.log(4.0),
                        log_H=math.log(4.0), theta=1.0 / 3.0)
    def check(case, alpha, log_eps, log_L, log_H, theta):
        spec = WellSpec(case, alpha)
        eps, L, H = 10.0 ** log_eps, math.exp(log_L), math.exp(log_H)
        d, b, label = best_construction(spec, eps, L, H, theta=theta)
        labels.add(label)
        for lam, rel, terms in ((2.0, 0.0, exact), (0.5, 0.0, exact),
                                (10.0, 1e-12, exact[1:]), (0.37, 1e-12, exact[1:])):
            ds, bs, label_s = best_construction(spec, lam * eps, lam * L, lam * H,
                                                theta=theta)
            assert label_s == label
            assert ds.meta.get("N") == d.meta.get("N")
            assert ds.meta.get("tau") == d.meta.get("tau")
            for name, power in terms:
                assert getattr(bs, name) == pytest.approx(
                    lam ** power * getattr(b, name), rel=rel, abs=0.0), (lam, name)

    check()
    assert labels == {"identity", "branched-horizontal", "branched-vertical"}


def test_cells_and_jumps_follow_one_ramp():
    # The quadrature evaluates one ramp per column of nodes: a cell whose
    # map is curved is bounded by curves of the map's ramp kind and width,
    # and each side of a graph jump either does not bend or follows the
    # curve's ramp at the same local x.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(case=st.sampled_from([CASE_K1, CASE_K2]),
                      alpha=st.floats(0.05, 0.45),
                      log_eps=st.floats(-6.0, -2.0),
                      log_aspect=st.floats(math.log(0.25), math.log(4.0)),
                      theta=st.floats(0.26, 0.45),
                      linear=st.booleans(),
                      h_over_ell=st.floats(0.05, 1.0))
    def check(case, alpha, log_eps, log_aspect, theta, linear, h_over_ell):
        kind = "linear" if linear and case == CASE_K1 else "quintic"
        dom = Rect(0.0, 0.0, math.exp(0.5 * log_aspect), math.exp(-0.5 * log_aspect))
        ell, h = dom.width, h_over_ell * dom.width
        defs = [*branched_constructions(WellSpec(case, alpha), 10.0 ** log_eps, dom, theta,
                                        kind).values(),
                k2_cell((0.0, 0.0), ell, h, alpha), k2_boundary_cell((0.0, 0.0), ell, h, alpha),
                k1_cell((0.0, 0.0), ell, h, alpha, gamma_kind=kind),
                k1_boundary_cell((0.0, 0.0), ell, h, alpha, gamma_kind=kind),
                laminate(dom, dom.height / 4.0, alpha, case)]
        curved = bent = 0
        for d in defs:
            for part in d.parts:
                for g in part.groups:
                    lower, upper, m = g.proto.lower, g.proto.upper, g.proto.map
                    if m.curved:
                        curved += 1
                        assert lower.kind == upper.kind == m.kind, m.key()
                        assert lower.width == upper.width == m.ell, m.key()
                for jg in part.jumps:
                    if not isinstance(jg.proto, GraphJump):
                        continue
                    c = jg.proto.curve
                    for side in jg.proto.sides():
                        if side.map.bends:
                            bent += 1
                            assert (side.map.kind, side.map.ell, side.off_x) == \
                                (c.kind, c.width, 0.0), (jg.tag, side.map.key())
        assert curved and bent

    check()


def test_coverage_property():
    # Tiling, value continuity and the identity trace for random inputs.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(case=st.sampled_from([CASE_K1, CASE_K2]),
                      vertical=st.booleans(),
                      alpha=st.floats(0.05, 0.3),
                      log_eps=st.floats(-5.0, -2.0),
                      log_aspect=st.floats(math.log(0.25), math.log(4.0)),
                      theta=st.floats(0.26, 0.4, exclude_min=True, exclude_max=True))
    def check(case, vertical, alpha, log_eps, log_aspect, theta):
        aspect = math.exp(log_aspect)
        dom = Rect(0.0, 0.0, math.sqrt(aspect), 1.0 / math.sqrt(aspect))
        build = vertical_branched_k1 if vertical and case == CASE_K1 else horizontal_branched
        d = build(WellSpec(case, alpha), 10.0 ** log_eps, dom, theta=theta)
        rep = coverage_check(d)
        assert rep.ok, rep.failures
        assert rep.area_residual <= 1e-9
        assert rep.continuity_max < 1e-10
        assert rep.boundary_max <= 1e-12
        # The x-slab locator and the one-pass continuity check against the
        # per-group and per-instance oracles.
        assert repr(rep) == repr(oracle_coverage_check(d))
        rng = np.random.default_rng(int(1e6 * alpha))
        pts = np.concatenate([rng.uniform((dom.x0, dom.y0), (dom.x1, dom.y1), (200, 2)),
                              edge_points(d, rng, per_group=1)])
        assert located(PiecewiseDeformation._locate, d, pts) == located(oracle_locate, d, pts)

    check()


def test_stripe_lines_match_the_sorted_break_oracle():
    # The stripe and centre lines built by one walk of both edge profiles
    # are the groups of the sorted-set-and-scan build, float for float, in
    # the same order.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    build = microstructure._vertical_jump_groups
    tags = set()

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(case=st.sampled_from([CASE_K1, CASE_K2]),
                      linear=st.booleans(),
                      alpha=st.floats(0.05, 0.45),
                      log_eps=st.floats(-8.0, -2.0),
                      log_aspect=st.floats(math.log(0.25), math.log(4.0)),
                      theta=st.floats(0.26, 0.45))
    def check(case, linear, alpha, log_eps, log_aspect, theta):
        aspect = math.exp(log_aspect)
        dom = Rect(0.0, 0.0, math.sqrt(aspect), 1.0 / math.sqrt(aspect))
        kind = "linear" if linear and case == CASE_K1 else "quintic"
        calls = []

        def recording(*args, **kw):
            calls.append((args, kw, build(*args, **kw)))
            return calls[-1][2]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(microstructure, "_vertical_jump_groups", recording)
            horizontal_branched(WellSpec(case, alpha), 10.0 ** log_eps, dom, theta=theta,
                                gamma_kind=kind)
        assert calls
        for args, kw, groups in calls:
            assert groups == oracle_vertical_jump_groups(*args, **kw)
            tags.add(groups[0].tag)

    check()
    assert tags == {"stripe-line", "centre-line"}


def test_coverage_samples_counts_past_int64():
    # theta -> 1/2: the finest k1 stripes hold more than 2**63 cells.
    d = horizontal_branched(WellSpec(CASE_K1, 0.1), 1e-4, Rect(0.0, 0.0, 1.0, 1.0),
                            theta=0.49)
    assert max(jg.count for p in d.parts for jg in p.jumps) > 2 ** 63
    # Cells 1e-19 high are below double resolution, so no point location:
    # the tiling area and the sampled jump instances only.
    rep = coverage_check(d, boundary_tol=None)
    assert rep.ok, rep.failures


def test_locate_counts_past_int64():
    # Instance offsets of groups past 2**63 cells stay floats: no cast
    # warning, and the boundary trace is located and checked.
    d = horizontal_branched(WellSpec(CASE_K1, 0.1), 1e-4, Rect(0.0, 0.0, 1.0, 1.0),
                            theta=0.49)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = coverage_check(d)
        assert rep.ok, rep.failures
        assert rep.boundary_max <= 1e-12
        # Points in the boundary layer, 3e-20 wide, of cells 1e-19 high.
        ys = np.linspace(0.0, 1.0, 101)
        pts = np.column_stack([np.full_like(ys, 1e-20), ys])
        assert max(g.count for *_, g in d._locate(pts)) > 2 ** 63
        u, _ = d.evaluate(pts)
        assert np.abs(u - pts).max() < 1e-9
