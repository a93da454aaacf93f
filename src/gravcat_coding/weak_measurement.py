"""Weak-measurement post-selection protocol for gravcat thermal states.

Both qubits are measured weakly toward |0> with strength p (a partial,
in-principle-reversible collapse), the joint no-click branch is kept, and
the capacity is evaluated on the surviving state.  The post-selected state
and its capacity have closed forms in the thermal entries; the Kraus
conjugation route provides the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import chi_closed_form, check_success, x_state
from .coding import CapacityReport, _chi, _entropies, capacity_report, closed_form_report
from .linalg import DensityMatrix, two_qubit_matrix
from .thermal import GravcatParams, ThermalClosedForm, _gibbs, _hamiltonian, check_strength


@dataclass(frozen=True)
class PostSelectedState:
    """Normalized surviving state plus the probability of the kept branch."""

    state: DensityMatrix
    success_probability: float


def qwm_operator(strength: float) -> np.ndarray:
    """Single-qubit measurement operator diag(1, sqrt(1 - p)).

    Leaves |0> untouched and damps |1>; p = 0 is the identity, p = 1 the
    projector onto |0>.
    """
    check_strength(strength)
    return np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - strength)]], dtype=complex)


def _post_select(rho, q):
    """(Q(x)Q) rho (Q(x)Q)^dagger / P_s and P_s over a stack, with Q = diag(1, sqrt(q)).

    Q(x)Q is diagonal with k = (1, s, s, s^2), s = sqrt(q), so the
    conjugation scales entry (i, j) by k_i k_j.
    """
    s = np.sqrt(np.asarray(q, dtype=float))
    k = np.stack(np.broadcast_arrays(1.0, s, s, s * s), axis=-1)
    kept = rho * (k[..., :, np.newaxis] * k[..., np.newaxis, :])
    success = kept.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1)
    check_success(success)
    return kept / success[..., np.newaxis, np.newaxis], success


def apply_qwm(rho, strength: float) -> PostSelectedState:
    """Measure both qubits weakly and post-select: (Q(x)Q) rho (Q(x)Q)^dagger / P_s.

    P_s is the trace before renormalization.  p = 1 (full projection) is
    allowed as long as the surviving branch has nonzero probability.
    """
    state, success = _post_select(two_qubit_matrix(rho), 1.0 - check_strength(strength))
    return PostSelectedState(
        state=DensityMatrix(state, validated=True), success_probability=float(success)
    )


def chi_numeric(omega, gamma, temperature, q=1.0):
    """Dense-coding capacity through the matrix route, over broadcast arrays, with q = 1 - p.

    Gibbs state, Kraus post-selection, Pauli twirl and von Neumann entropies,
    each on the whole stack of 4x4 matrices; no closed form enters.  Inputs
    are not validated here (``GravcatParams`` holds the domain rules).
    """
    omega, gamma, temperature, q = np.broadcast_arrays(omega, gamma, temperature, q)
    return _chi(_post_select(_gibbs(_hamiltonian(omega, gamma), temperature), q)[0])


def numeric_report(params: GravcatParams, strength: float | None = None) -> CapacityReport:
    """Capacity report of the numeric engine; ``strength=None`` means no measurement."""
    state = _gibbs(_hamiltonian(params.omega, params.gamma), params.temperature)
    success = None
    if strength is not None:
        state, success = _post_select(state, 1.0 - check_strength(strength))
    return capacity_report(*_entropies(state), strength, success)


def wm_state_closed_form(cf: ThermalClosedForm, strength: float) -> PostSelectedState:
    """Closed-form post-selected thermal state (dual route to `apply_qwm`).

    With q = 1 - p the surviving state keeps the X pattern (see `x_state`),
    over P_s = alpha_minus + 2 beta q + alpha_plus q^2.
    """
    q = 1.0 - check_strength(strength)
    success = cf.alpha_minus + 2.0 * cf.beta * q + cf.alpha_plus * q * q
    check_success(success)
    m = x_state(cf, q) / success
    return PostSelectedState(state=DensityMatrix(m, validated=True), success_probability=success)


def capacity_wm_closed_form(params: GravcatParams, strength: float) -> CapacityReport:
    """Analytic capacity after the weak measurement, for any strength in [0, 1].

    The surviving state keeps the X pattern (see `wm_state_closed_form`);
    its spectrum and averaged halves come from ``closed_form``.  At p = 1
    the state is the |00> projector and chi is exactly 1, unless that
    branch has vanishing probability (``ZeroSuccessProbabilityError``).
    """
    return closed_form_report(params, strength)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section_maximize(fn, lo: float, hi: float, tol: float = 1e-9) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal function on [lo, hi].

    The bracket shrinks to width <= tol with a fixed, precomputed iteration
    count, so identical inputs give bit-identical results.  Returns
    (x_best, fn(x_best)) for the best probed point.
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


def optimize_strength(params: GravcatParams) -> tuple[float, float]:
    """Measurement strength maximizing the closed-form capacity.

    A 1001-point uniform grid on [0, 1 - 1e-9], scored in one array call,
    locates the maximum (the first one on ties), then a golden-section
    refinement on the bracketing interval narrows it to 1e-9.  The capacity
    profile can be non-monotonic with plateaus, so the deterministic grid
    comes first; derivative-based search is deliberately avoided.  The
    result never falls below the p = 0 capacity.
    """
    step = STRENGTH_MAX / (STRENGTH_GRID_POINTS - 1)
    grid = np.arange(STRENGTH_GRID_POINTS) * step  # bit-identical to i * step
    values = chi_closed_form(params.omega, params.gamma, params.temperature, 1.0 - grid)
    best = int(values.argmax())
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, STRENGTH_GRID_POINTS - 1)])
    p_refined, chi_refined = golden_section_maximize(
        lambda p: capacity_wm_closed_form(params, p).chi, lo, hi, tol=1e-9
    )
    candidates = [
        (float(values[0]), 0.0),
        (float(values[best]), float(grid[best])),
        (chi_refined, p_refined),
    ]
    chi_star, p_star = max(candidates, key=lambda t: (t[0], -t[1]))  # ties -> smaller p
    return p_star, chi_star
