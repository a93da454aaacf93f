"""Weak-measurement post-selection: the measured capacity and its optimal strength.

Both qubits are measured weakly toward |0> with strength p (a partial,
in-principle-reversible collapse), the joint no-click branch is kept, and
the capacity is evaluated on the surviving state.  `optimize_strength_many`
maximizes the closed-form capacity over p as the best of three candidate
strengths: none, the one that balances the corner block, and the largest
below 1.  The Kraus route lives in ``numeric``; the README's "Wrappers kept
for the benchmark" says why the wrappers here stay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    ThermalTerms, _chi_from_terms, _post_selected_terms, _thermal_terms, closed_form_engine,
    x_state,
)
from .coding import CapacityReport, engine_report
from .linalg import two_qubit_matrix
from .numeric import _post_select
from .thermal import GravcatParams, check_domain


@dataclass(frozen=True)
class PostSelectedState:
    """Normalized surviving state plus the probability of the kept branch."""

    state: np.ndarray
    success_probability: float


def apply_qwm(rho, strength: float) -> PostSelectedState:
    """Measure both qubits weakly and post-select: (Q(x)Q) rho (Q(x)Q)^dagger / P_s.

    P_s is the trace before renormalization.  p = 1 (full projection) is
    allowed as long as the surviving branch has nonzero probability.
    """
    check_domain(strength=strength)
    state, success = _post_select(two_qubit_matrix(rho), 1.0 - strength)
    return PostSelectedState(state=state, success_probability=float(success))


def wm_state_closed_form(cf: ThermalTerms, strength: float) -> PostSelectedState:
    """Closed-form post-selected thermal state (dual route to `apply_qwm`).

    With q = 1 - p the surviving state keeps the X pattern (see `x_state`),
    over the success probability of `_post_selected_terms`.  At p = 1 it is
    |00><00|, also where the weight of that branch underflows to 0, as in
    `capacity_wm_closed_form`; any other vanishing branch raises
    ``ZeroSuccessProbabilityError``.
    """
    check_domain(strength=strength)
    q = 1.0 - strength
    success = _post_selected_terms(cf, q).success
    state = np.diag([1.0, 0.0, 0.0, 0.0]) if q == 0.0 else x_state(cf, q) / success
    return PostSelectedState(state=state, success_probability=float(success))


def capacity_wm_closed_form(params: GravcatParams, strength: float) -> CapacityReport:
    """Analytic capacity after the weak measurement, for any strength in [0, 1].

    The surviving state keeps the X pattern (see `wm_state_closed_form`);
    its spectrum and averaged halves come from ``closed_form``.  At p = 1
    the state is the |00> projector and chi is exactly 1, unless that
    branch has vanishing probability (``ZeroSuccessProbabilityError``).
    """
    return engine_report(closed_form_engine, params, strength)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section_maximize(fn, lo: float, hi: float, tol: float = 1e-9) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal function on [lo, hi].

    The bracket shrinks to width <= tol with a fixed, precomputed iteration
    count, so identical inputs give bit-identical results.  Returns
    (x_best, fn(x_best)) for the best probed point.

    Nothing in the package calls it since `optimize_strength_many` takes
    the best of three candidates; the README's "Wrappers kept for the
    benchmark" says why it stays.
    """
    span = hi - lo
    if span <= tol:
        mid = 0.5 * (lo + hi)
        return mid, fn(mid)
    steps = int(math.ceil(math.log(tol / span) / math.log(_INV_PHI)))
    c = lo + _INV_PHI_SQ * span
    d = lo + _INV_PHI * span
    fc, fd = fn(c), fn(d)
    for _ in range(steps):
        span *= _INV_PHI
        if fc >= fd:  # keep the left bracket on ties, for determinism
            hi, d, fd = d, c, fc
            c = lo + _INV_PHI_SQ * span
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * span
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


Q_MIN = 2.0**-53  # the smallest candidate q = 1 - p: p = 1 - Q_MIN is exact
STRENGTH_MAX = 1.0 - Q_MIN  # the largest double below 1; chi(p = 1) is exactly 1

# per-candidate bounds: p_eq clipped between them gives the three candidates
# p = 0, p_eq within [0, STRENGTH_MAX] and p = STRENGTH_MAX, in two calls
_CANDIDATE_FLOOR = np.array([0.0, 0.0, STRENGTH_MAX])
_CANDIDATE_CEIL = np.array([0.0, STRENGTH_MAX, STRENGTH_MAX])


def optimize_strength_many(omega, gamma, temperature):
    """`optimize_strength` over broadcast arrays of points.

    Returns (p_star, chi_star) arrays of the broadcast shape.  The three
    candidate strengths of each point are evaluated in one closed-form pass
    over a leading candidate axis, so the work per point is fixed and a
    point's result has the same bits alone or in any batch.  The memory is
    linear in the batch, about 400 bytes per point.  ``check_domain``
    checks the inputs.
    """
    check_domain(omega=omega, gamma=gamma, temperature=temperature)
    return _optimize_many(omega, gamma, temperature)


def _optimize_many(omega, gamma, temperature):
    thermal = _thermal_terms(omega, gamma, temperature)  # numpy scalars for scalar inputs
    # alpha_plus >= 1/8 keeps q_eq finite, and alpha_plus >= alpha_minus
    # puts it in [0, 1]; the clip also absorbs a rounding above 1.  p = 1 - q
    # is formed first and chi is read at 1 - p, so chi_star is chi at p_star
    p_eq = 1.0 - np.sqrt(thermal.alpha_minus / thermal.alpha_plus)
    column = (3,) + (1,) * np.ndim(p_eq)  # the candidates lead, so ey2 may lack the omega axes
    p = np.minimum(np.maximum(p_eq, _CANDIDATE_FLOOR.reshape(column)),
                   _CANDIDATE_CEIL.reshape(column))
    terms = _post_selected_terms(thermal, 1.0 - p)
    del thermal  # freed before the entropies take a second stack of terms' size
    chi = _chi_from_terms(terms)
    # the candidates run in increasing p, so the first maximum is the smaller p on ties
    best = chi.argmax(axis=0)
    if chi.ndim == 1:  # one point: indexing takes about 1 us, take_along_axis and max 9 us
        return p[best], chi[best]
    return np.take_along_axis(p, best[np.newaxis], axis=0)[0], chi.max(axis=0)


def optimize_strength(params: GravcatParams) -> tuple[float, float]:
    """Measurement strength maximizing the closed-form capacity: (p_star, chi_star).

    The best of three candidates, q = 1 - p:

    - q = 1, no measurement, so chi_star is never below the p = 0 capacity
      and p_star is exactly 0 when no measurement helps;
    - the corner-balance strength q_eq = sqrt(alpha_minus / alpha_plus),
      clipped to [Q_MIN, 1]: the measurement scales alpha_plus by q^2 and
      keeps alpha_minus, so at q_eq the two halves of the Pauli-averaged
      state are equal and S(rho_bar) reaches its maximum of 2 bits;
    - q = Q_MIN = 2^-53, the largest strength below 1, for the profiles
      that climb towards chi's p = 1 limit of 1 bit all the way there.

    Ties go to the smaller p.  Each p is formed first and chi is evaluated
    at 1 - p, so chi_star is ``chi_closed_form(omega, gamma, T, 1 - p_star)``
    bit for bit.  p_star names the first candidate, in the order above, to
    reach the maximum, so where two candidates' chi agree within an ulp, a
    1-ulp move in chi can move p_star to the other one (on seeded wide-box
    points, from 1 - 2^-53 to 2.06e-5) while chi_star moves by at most
    4.4e-16: chi_star is the stable output.  Runs the core of
    `optimize_strength_many` on the checked scalars of ``params``, so the
    thermal entries are numpy scalars.
    """
    p_star, chi_star = _optimize_many(params.omega, params.gamma, params.temperature)
    return float(p_star), float(chi_star)
