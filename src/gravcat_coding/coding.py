"""Dense-coding capacity of a two-qubit resource state.

The capacity chi = S(rho_bar) - S(rho) measures, in bits, how much classical
information one transmitted qubit of the shared pair can carry; rho_bar is
the average over the four Pauli signal encodings applied to the sender's
qubit (the first tensor factor).  chi > 1 beats the classical single-qubit
limit and chi = 2 is the optimum.  `ENGINES` maps the engine names,
``closed_form`` and ``numeric``, to their functions, and `engine_report`
turns the output of either into a `CapacityReport`.  No
command runs the wrappers `ensemble_average`, `ensemble_average_via_marginal`
and `capacity_numeric` over ``numeric`` for any real two-qubit state, or
`capacity_closed_form`; the README's "Wrappers kept for the benchmark" says
why they stay.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closed_form import closed_form_engine
from .linalg import two_qubit_matrix
from .numeric import _entropies, _marginal_replacement, _twirl, numeric_engine
from .thermal import GravcatParams, InvalidParameterError, check_domain

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
    rho = two_qubit_matrix(rho)
    return capacity_report(*_entropies(rho, _twirl(rho)))


class _EngineTable(dict):
    """Engine name -> array function (omega, gamma, T, q) -> (spectrum, S(rho), S(rho_bar),
    success), where ``spectrum`` is one array whose leading axis holds the four
    eigenvalues; an unknown name raises ``InvalidParameterError``."""

    def __missing__(self, engine: str):
        raise InvalidParameterError(
            f"unknown engine {engine!r}; expected one of {', '.join(self)}"
        )


ENGINES = _EngineTable(closed_form=closed_form_engine, numeric=numeric_engine)


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
