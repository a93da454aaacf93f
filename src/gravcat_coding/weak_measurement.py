"""Weak-measurement post-selection: the measured capacity and its optimal strength.

Both qubits are measured weakly toward |0> with strength p (a partial,
in-principle-reversible collapse), the joint no-click branch is kept, and
the capacity is evaluated on the surviving state.  `optimize_strength_many`
maximizes the closed-form capacity over p.  The Kraus route lives in
``numeric``; the wrappers here stay only because the benchmark's tracer pins
them or its optimize-points gate calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numeric
from .closed_form import (
    ThermalTerms, _chi_from_terms, _post_selected_terms, _thermal_terms, closed_form_engine,
    x_state,
)
from .coding import CapacityReport, engine_report
from .linalg import two_qubit_matrix
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
    state, success = numeric._post_select(two_qubit_matrix(rho), 1.0 - strength)
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

    Nothing in the package calls it since `optimize_strength_many` refines
    with array levels; it stays only because the benchmark's tracer looks
    the name up, and goes once the tracer stops doing so.
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


STRENGTH_GRID_POINTS = 1001
STRENGTH_MAX = 1.0 - 1e-9  # upper end of the scan; chi(p = 1) is exactly 1
REFINE_POINTS = 101  # points per refinement level, ends of the bracket included
REFINE_LEVELS = 4  # each level narrows the bracket 50-fold: 2e-3 wide to 3.2e-10
OPTIMIZE_BLOCK = 256  # points per scan block; bounds the memory, never changes a result


def optimize_strength_many(omega, gamma, temperature):
    """`optimize_strength` over broadcast arrays of points.

    Returns (p_star, chi_star) arrays of the broadcast shape.  The thermal
    entries are evaluated once per point; the scan and the refinement then
    run over blocks of ``OPTIMIZE_BLOCK`` points, with the strengths along a
    new last axis, so the memory they take does not grow with the batch.
    The work per point is fixed, so a point's result has the same bits
    alone, in any batch or in any block.  ``check_domain`` checks the inputs.
    """
    check_domain(omega=omega, gamma=gamma, temperature=temperature)
    return _optimize_many(omega, gamma, temperature)


def _optimize_many(omega, gamma, temperature):
    shape = np.broadcast(omega, gamma, temperature).shape
    terms = _thermal_terms(omega, gamma, temperature)  # numpy scalars for scalar inputs
    stacked = np.empty((len(terms),) + shape)
    for i, term in enumerate(terms):
        stacked[i] = term  # exp(-2 gamma/T) may lack the omega axes
    rows = stacked.reshape(len(terms), -1, 1)  # one row per point
    p_star, chi_star = np.empty((2, rows.shape[1]))
    for start in range(0, rows.shape[1], OPTIMIZE_BLOCK):
        block = slice(start, start + OPTIMIZE_BLOCK)
        p_star[block], chi_star[block] = _optimize_rows(ThermalTerms(*rows[:, block]))
    return p_star.reshape(shape), chi_star.reshape(shape)


def _optimize_rows(thermal: ThermalTerms):
    """(p_star, chi_star) of each row of thermal terms, each of shape (points, 1)."""
    rows = np.arange(thermal.z.shape[0])
    chi = lambda p: _chi_from_terms(_post_selected_terms(thermal, 1.0 - p))

    step = STRENGTH_MAX / (STRENGTH_GRID_POINTS - 1)
    grid = np.arange(STRENGTH_GRID_POINTS) * step  # bit-identical to i * step
    scan = chi(grid)
    best = scan.argmax(axis=-1)  # the first maximum
    chi_scan, p_scan = scan[rows, best], grid[best]
    lo = grid[np.maximum(best - 1, 0), np.newaxis]
    hi = grid[np.minimum(best + 1, STRENGTH_GRID_POINTS - 1), np.newaxis]
    fractions = np.arange(REFINE_POINTS) / (REFINE_POINTS - 1)
    for _ in range(REFINE_LEVELS):
        points = lo + (hi - lo) * fractions
        values = chi(points)
        best = values.argmax(axis=-1)
        chi_refined, p_refined = values[rows, best], points[rows, best]
        lo = points[rows, np.maximum(best - 1, 0), np.newaxis]
        hi = points[rows, np.minimum(best + 1, REFINE_POINTS - 1), np.newaxis]

    chi_star, p_star = scan[:, 0], np.zeros(rows.shape)
    for chi_c, p_c in ((chi_scan, p_scan), (chi_refined, p_refined)):
        better = (chi_c > chi_star) | ((chi_c == chi_star) & (p_c < p_star))  # ties -> smaller p
        chi_star, p_star = np.where(better, chi_c, chi_star), np.where(better, p_c, p_star)
    return p_star, chi_star


def optimize_strength(params: GravcatParams) -> tuple[float, float]:
    """Measurement strength maximizing the closed-form capacity: (p_star, chi_star).

    - A scan of 1001 points ``i * step`` on [0, 1 - 1e-9] locates the
      maximum, the first one on ties.  The profile can be non-monotonic
      with plateaus, so the whole scan always runs.
    - Four levels of 101 evenly spaced points, starting on the bracket one
      scan step to either side, each re-bracket around their first maximum,
      down to a final bracket at most 1e-9 wide (3.2e-10 from an interior
      scan point).
    - The result is the best of p = 0, the scan maximum and the refined
      maximum, the smaller p on ties, so it never falls below the p = 0
      capacity.

    No derivative is used.  Runs the core of `optimize_strength_many` on the
    checked scalars of ``params``, so the thermal entries are numpy scalars.
    """
    p_star, chi_star = _optimize_many(params.omega, params.gamma, params.temperature)
    return float(p_star), float(chi_star)
