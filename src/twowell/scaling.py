"""Scaling laws, regime classification and lower-bound diagnostics.

The minimum energy is comparable (up to universal constants) to a closed
shape function of ``(alpha, eps, L, H)``:

* case k1 (two rank-one connections):
  ``min{ a^{4/3} e^{2/3} L^{1/3} H + a e L,
         a^{4/3} e^{2/3} L H^{1/3} + a^4 L H + a e H,
         a^2 L H }``
* case k2 (one degenerate connection):
  ``min{ a^{6/5} e^{4/5} L^{1/5} H + a e L,  a^2 L H }``

The attained branch and its dominant addend classify the microstructure
regime: austenite (A), branching (BR), horizontal laminate (HL) and, for
case k1 only, the rotated vertical variants (VB1, VB2, VL).  All constants
are set to one; only exponents are asserted anywhere, ratios against
measured energies are regression-pinned.

One step of the lower-bound argument is executable: the averaging inequality
for vector fields of length at most ``1 + d`` whose component along a
direction has mean one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wells import CASE_K1, CASE_K2

__all__ = [
    "BoundValue",
    "min_energy_bound",
    "classify_regime",
    "PhaseDiagram",
    "phase_diagram",
    "AverageLemmaReport",
    "HypothesisError",
    "check_average_lemma",
    "K1_REGIMES",
]

K1_REGIMES = ("A", "BR", "HL", "VB1", "VB2", "VL")

#: Regression-pinned two-sided constant: measured construction energies stay
#: within [1, C] times the shape-function value over the acceptance grid
#: (eps in 1e-7..1e-3, aspect 1/4..4, alpha in {0.05, 0.1, 0.2}; measured
#: maximum 43.3).  The value is an empirical ceiling, not a theory constant.
RATIO_PIN_C = 60.0


@dataclass(frozen=True)
class BoundValue:
    """Value of the scaling shape function with per-branch addends."""

    value: float
    branch: int
    branch_terms: tuple[tuple[float, ...], ...]


def _check_params(alpha, eps, L, H):
    # Written so that NaN fails both tests.
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if not all(0.0 < v < math.inf for v in (eps, L, H)):
        raise ValueError("eps, L, H must be positive and finite")


def _terms_k1(alpha, eps, L, H, L13, H13):
    # L13, H13 are L ** (1/3), H ** (1/3).  Every other operation is a product
    # or sum, so scalars and broadcast axis arrays give bit-equal values.
    a43e23 = alpha ** (4.0 / 3.0) * eps ** (2.0 / 3.0)
    return (
        (a43e23 * L13 * H, alpha * eps * L),
        (a43e23 * L * H13, alpha ** 4 * L * H, alpha * eps * H),
        (alpha ** 2 * L * H,),
    )


def _terms_k2(alpha, eps, L, H, L15):
    # L15 is L ** 0.2.
    return (
        (alpha ** 1.2 * eps ** 0.8 * L15 * H, alpha * eps * L),
        (alpha ** 2 * L * H,),
    )


def _bound(terms) -> BoundValue:
    sums = [sum(t) for t in terms]
    branch = min(range(len(sums)), key=lambda i: sums[i])
    return BoundValue(sums[branch], branch, terms)


def min_energy_bound(case: str, alpha: float, eps: float, L: float,
                     H: float) -> BoundValue:
    if case not in (CASE_K1, CASE_K2):
        raise ValueError(f"unknown case {case!r}")
    _check_params(alpha, eps, L, H)
    if case == CASE_K1:
        return _bound(_terms_k1(alpha, eps, L, H, L ** (1.0 / 3.0), H ** (1.0 / 3.0)))
    return _bound(_terms_k2(alpha, eps, L, H, L ** 0.2))


def classify_regime(case: str, alpha: float, eps: float, L: float, H: float) -> str:
    """Regime tag from the winning branch and its largest addend.

    Regime boundaries are term-equality loci (the published diagrams are
    schematic); ties resolve to the first listed tag.
    """
    b = min_energy_bound(case, alpha, eps, L, H)
    return K1_REGIMES[int(_regime_index(case, b.branch, b.branch_terms))]


def _regime_index(case: str, branch, terms):
    """Position of the regime tag in ``K1_REGIMES`` (case k2 uses its first
    three tags), elementwise over scalar or broadcast-array terms.

    Branch 0 is BR or HL by its larger addend (BR on a tie); the last branch
    is A; the middle k1 branch is VB1, VB2 or VL by its first largest addend.
    """
    t0, t1 = terms[0]
    index = np.where(branch == 0, np.where(t0 >= t1, 1, 2), 0)
    if case == CASE_K1:
        dominant = np.argmax(np.stack(np.broadcast_arrays(*terms[1])), axis=0)
        index = np.where(branch == 1, 3 + dominant, index)
    return index


@dataclass
class PhaseDiagram:
    case: str
    alpha: float
    log10_over_eps: np.ndarray  # (n,): the log10 L/eps and log10 H/eps axes
    regimes: np.ndarray      # (n, n) of str, one row per H
    bound_values: np.ndarray  # (n, n)

    def labels(self) -> set[str]:
        return set(self.regimes.ravel().tolist())


def phase_diagram(case: str, alpha: float,
                  log_range: tuple[float, float] = (0.5, 6.0),
                  n: int = 121) -> PhaseDiagram:
    """Classify the log-log grid ``log_range`` x ``log_range`` of
    (log10 L/eps, log10 H/eps), eps fixed at 1."""
    if n < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    logs = np.linspace(log_range[0], log_range[1], n)
    # Fractional powers per axis point with the scalar ``**`` of the scalar
    # bounds: NumPy's array power can differ from it in the last bit.
    sides = [10.0 ** v for v in logs]
    L = np.array(sides)[None, :]
    H = L.T
    _check_params(alpha, 1.0, 1.0, 1.0)
    if case == CASE_K1:
        roots = np.array([x ** (1.0 / 3.0) for x in sides])
        terms = _terms_k1(alpha, 1.0, L, H, roots[None, :], roots[:, None])
    elif case == CASE_K2:
        terms = _terms_k2(alpha, 1.0, L, H, np.array([x ** 0.2 for x in sides])[None, :])
    else:
        raise ValueError(f"unknown case {case!r}")
    sums = np.stack(np.broadcast_arrays(*(sum(t) for t in terms)))
    # argmin and argmax keep the first extremum, as min/max over range() do.
    branch = np.argmin(sums, axis=0)
    vals = sums.min(axis=0)
    regimes = np.array(K1_REGIMES, dtype=object)[_regime_index(case, branch, terms)]
    return PhaseDiagram(case, alpha, logs, regimes, vals)


# ---------------------------------------------------------------------------
# Averaging inequality diagnostic
# ---------------------------------------------------------------------------


class HypothesisError(ValueError):
    """The sampled field violates the averaging lemma's hypotheses."""


@dataclass(frozen=True)
class AverageLemmaReport:
    lhs_parallel: float
    rhs_parallel: float
    lhs_perp: float
    rhs_perp: float

    @property
    def holds(self) -> bool:
        return (self.rhs_parallel - self.lhs_parallel >= -1e-12
                and self.rhs_perp - self.lhs_perp >= -1e-12)


def check_average_lemma(v_samples: np.ndarray, d_samples: np.ndarray,
                        e: np.ndarray, area: float) -> AverageLemmaReport:
    """Evaluate both averaging inequalities on discrete samples.

    Hypotheses (checked, violation raises :class:`HypothesisError`):
    ``mean(v . e - 1) = 0`` and ``|v| <= 1 + d`` pointwise with ``d >= 0``.
    Then ``||v.e - 1||_L1 <= 2 |w|^{1/2} ||d||_L2`` and
    ``||v.e_perp||_L1 <= 3 |w|^{3/4} ||d||_L2^{1/2} + |w|^{1/2} ||d||_L2``.
    """
    v = np.asarray(v_samples, dtype=float)
    d = np.asarray(d_samples, dtype=float)
    e = np.asarray(e, dtype=float)
    if area <= 0:
        raise ValueError("area must be positive")
    if abs(float(np.linalg.norm(e)) - 1.0) > 1e-9:
        raise ValueError("e must be a unit vector")
    if v.ndim != 2 or v.shape[1] != 2 or d.shape != (v.shape[0],):
        raise ValueError("expected v of shape (n, 2) and d of shape (n,)")
    if np.any(d < -1e-12):
        raise HypothesisError("d must be nonnegative")
    ve = v @ e
    if abs(float(np.mean(ve)) - 1.0) > 1e-9:
        raise HypothesisError("v . e - 1 must have zero average")
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms > 1.0 + d + 1e-9):
        raise HypothesisError("|v| <= 1 + d must hold pointwise")

    eperp = np.array([-e[1], e[0]])
    vp = v @ eperp
    l1_par = area * float(np.mean(np.abs(ve - 1.0)))
    l1_perp = area * float(np.mean(np.abs(vp)))
    l2_d = math.sqrt(area * float(np.mean(d * d)))
    rhs_par = 2.0 * math.sqrt(area) * l2_d
    rhs_perp = 3.0 * area ** 0.75 * math.sqrt(l2_d) + math.sqrt(area) * l2_d
    return AverageLemmaReport(l1_par, rhs_par, l1_perp, rhs_perp)
