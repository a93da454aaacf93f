"""Dense-coding capacity of a two-qubit resource state.

The capacity chi = S(rho_bar) - S(rho) measures, in bits, how much classical
information one transmitted qubit of the shared pair can carry; rho_bar is
the average over the four Pauli signal encodings applied to the sender's
qubit (the first tensor factor).  chi > 1 beats the classical single-qubit
limit and chi = 2 is the optimum.  Two routes are implemented: the general
numeric pipeline on any real two-qubit state, and the closed form for
gravcat thermal states, each serving as the other's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closed_form import closed_form_engine
from .linalg import (
    _eigenvalues,
    _partial_trace_first,
    _symmetrized,
    entropy_bits,
    two_qubit_matrix,
)
from .thermal import GravcatParams, check_domain

ADVANTAGE_EPSILON = 1e-3  # chi within this of 2 counts as optimal


class Advantage(str, Enum):
    NONE = "none"        # chi <= 1: no quantum advantage
    VALID = "valid"      # 1 < chi < 2 - epsilon
    OPTIMAL = "optimal"  # chi >= 2 - epsilon


def classify_advantage(chi: float) -> Advantage:
    if chi >= 2.0 - ADVANTAGE_EPSILON:
        return Advantage.OPTIMAL
    if chi > 1.0:
        return Advantage.VALID
    return Advantage.NONE


@dataclass(frozen=True)
class CapacityReport:
    """chi plus the quantities it decomposes into.

    ``state_spectrum`` holds the four eigenvalues of the resource state in
    descending order.  ``strength`` and ``success_probability`` are filled
    only for weak-measurement capacities.
    """

    chi: float
    entropy_state: float
    entropy_average: float
    state_spectrum: tuple[float, float, float, float]
    advantage: Advantage
    strength: float | None = None
    success_probability: float | None = None

    def to_dict(self) -> dict:
        out = {
            "chi": self.chi,
            "entropy_state": self.entropy_state,
            "entropy_average": self.entropy_average,
            "state_spectrum": list(self.state_spectrum),
            "advantage": self.advantage.value,
        }
        if self.strength is not None:
            out["strength"] = self.strength
            out["success_probability"] = self.success_probability
        return out


# I, X, XZ and Z on the sender's qubit are signed permutations of the basis
# |00>, |01>, |10>, |11>: X (x) I swaps the two halves, Z (x) I flips the
# sign of the second half
_SWAP_HALVES = np.array([2, 3, 0, 1])
_HALF_SIGNS = np.outer([1.0, 1.0, -1.0, -1.0], [1.0, 1.0, -1.0, -1.0])


def _twirl(rho) -> np.ndarray:
    """Pauli twirl of the sender's qubit over a stack of states, re-symmetrized.

    The four terms are u rho u^dagger for u = s (x) I with s = I, X, Y, Z, in
    that order.  Since sigma_y = i sigma_x sigma_z, the Y term equals
    (sigma_x sigma_z) rho (sigma_x sigma_z)^T, so every u is a real signed
    permutation and each term is ``rho`` with its rows and columns permuted
    and its entries sign-flipped.  Each entry of a term is one entry of
    ``rho`` times +-1, exactly what the product ``u @ rho @ u.T`` gives.
    """
    swapped = rho[..., _SWAP_HALVES[:, np.newaxis], _SWAP_HALVES]
    return _symmetrized(0.25 * (rho + swapped + swapped * _HALF_SIGNS + rho * _HALF_SIGNS))


def _entropies_of(rho, average):
    """(spectrum, S(rho), S(average)) over a stack of two-qubit states and their twirls,
    where ``spectrum[i]`` is the i-th largest eigenvalue of ``rho`` over the stack."""
    spectrum = _eigenvalues(rho)
    entropy_state = entropy_bits(spectrum)
    return np.moveaxis(spectrum, -1, 0), entropy_state, entropy_bits(_eigenvalues(average))


def _entropies(rho):
    """(spectrum, S(rho), S(rho_bar)) over a stack of two-qubit states, where
    ``spectrum[i]`` is the i-th largest eigenvalue over the stack."""
    return _entropies_of(rho, _twirl(rho))


def _marginal_replacement(rho) -> np.ndarray:
    """(I/2) (x) tr_A(rho) over a stack of two-qubit states."""
    out = np.zeros_like(rho)
    out[..., :2, :2] = out[..., 2:, 2:] = 0.5 * _partial_trace_first(rho)
    return out


def ensemble_average(rho) -> np.ndarray:
    """Average of the four signal encodings: (1/4) sum_i (s_i (x) I) rho (s_i (x) I).

    This Pauli twirl of the sender's qubit is the definitional route; it
    equals (I/2) (x) tr_A(rho), which `ensemble_average_via_marginal`
    computes directly.
    """
    return _twirl(two_qubit_matrix(rho))


def ensemble_average_via_marginal(rho) -> np.ndarray:
    """Identity route: the twirl replaces the sender's qubit with I/2."""
    return _marginal_replacement(two_qubit_matrix(rho))


def capacity_report(
    spectrum, entropy_state, entropy_average, strength=None, success=None
) -> CapacityReport:
    """The ``CapacityReport`` of either engine; ``success`` is kept only with a ``strength``."""
    chi = float(entropy_average - entropy_state)
    return CapacityReport(
        chi=chi,
        entropy_state=float(entropy_state),
        entropy_average=float(entropy_average),
        state_spectrum=tuple(sorted((float(v) for v in spectrum), reverse=True)),
        advantage=classify_advantage(chi),
        strength=strength,
        success_probability=None if strength is None else float(success),
    )


def capacity_numeric(rho) -> CapacityReport:
    """chi = S(ensemble_average(rho)) - S(rho) on any real two-qubit state."""
    return capacity_report(*_entropies(two_qubit_matrix(rho)))


def engine_report(engine, params: GravcatParams, strength: float | None = None) -> CapacityReport:
    """The ``CapacityReport`` of an engine function at one point.

    ``engine`` maps (omega, gamma, T, q) to (spectrum, S(rho), S(rho_bar),
    success), as `closed_form_engine` does.  ``strength=None`` evaluates at
    q = 1, as a sweep cell without p does, and leaves the strength and the
    success probability out of the report.
    """
    p = 0.0 if strength is None else strength  # no measurement is p = 0
    check_domain(strength=p)
    spectrum, entropy_state, entropy_average, success = engine(
        params.omega, params.gamma, params.temperature, 1.0 - p
    )
    return capacity_report(spectrum, entropy_state, entropy_average, strength, success)


def capacity_closed_form(params: GravcatParams) -> CapacityReport:
    """Analytic capacity of the gravcat thermal state (no measurement, q = 1)."""
    return engine_report(closed_form_engine, params)
