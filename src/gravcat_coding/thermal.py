"""Two-gravcat Hamiltonian and its thermal equilibrium state.

The model couples two double-well qubits: a level splitting ``omega`` on each
qubit plus a gravity-induced sigma_x (x) sigma_x exchange of strength
``gamma``, all in natural units with k_B = 1.  The Gibbs state at temperature
T has an X-shaped sparsity pattern whose entries have closed forms;
``gibbs_numeric`` provides the independent matrix-exponential route to the
same state, and every closed form in the package is tested against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import _closed_form_terms, x_state
from .linalg import DensityMatrix, PAULI_I, PAULI_X, PAULI_Z, eigh, from_spectrum, tensor

MIN_TEMPERATURE = 1e-6  # the Gibbs form is singular at T = 0


class InvalidParameterError(ValueError):
    """Model parameter outside its validity domain."""


class DegenerateGeometryError(ValueError):
    """Well geometry with no real inter-axis distance (L >= d_prime)."""


class OutOfRangeError(ValueError):
    """Measurement strength outside [0, 1]."""


def check_strength(strength: float) -> float:
    """Return the measurement strength, raising ``OutOfRangeError`` outside [0, 1]."""
    if not (math.isfinite(strength) and 0.0 <= strength <= 1.0):
        raise OutOfRangeError(f"measurement strength must lie in [0, 1], got {strength!r}")
    return strength


@dataclass(frozen=True)
class GravcatParams:
    """Model knobs in natural units (k_B = 1).

    ``omega`` is the qubit level splitting, ``gamma`` the gravitational
    exchange coupling, ``temperature`` the bath temperature.  ``omega = 0``
    makes two pairs of thermal levels cross; it is physically fine but must
    be opted into with ``allow_degenerate_omega``.
    """

    omega: float
    gamma: float
    temperature: float
    allow_degenerate_omega: bool = False

    def __post_init__(self) -> None:
        for name in ("omega", "gamma", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")
        if self.omega < 0.0 or (self.omega == 0.0 and not self.allow_degenerate_omega):
            raise InvalidParameterError(
                "omega must be positive (set allow_degenerate_omega=True to permit omega = 0)"
            )
        if self.gamma < 0.0:
            raise InvalidParameterError("gamma must be nonnegative")
        if self.temperature < MIN_TEMPERATURE:
            raise InvalidParameterError(
                f"temperature must be positive (minimum {MIN_TEMPERATURE:g} in natural units)"
            )

    @property
    def theta(self) -> float:
        """Energy scale sqrt(omega^2 + gamma^2) of the coupled outer block."""
        return math.hypot(self.omega, self.gamma)


@dataclass(frozen=True)
class GravcatGeometry:
    """Layout of the two double wells.

    Each well pair sits on its own axis; the axes are parallel.  ``d_prime``
    is the distance between two masses sitting in *different* relative
    minima, ``L`` the offset along the axes, and the same-minimum distance
    is d = sqrt(d_prime^2 - L^2).
    """

    G: float
    mass: float
    d_prime: float
    L: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.G) and self.G > 0.0):
            raise InvalidParameterError("G must be positive")
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise InvalidParameterError("mass must be positive")
        if not (math.isfinite(self.d_prime) and self.d_prime > 0.0):
            raise InvalidParameterError("d_prime must be positive")
        if not (math.isfinite(self.L) and self.L >= 0.0):
            raise InvalidParameterError("L must be nonnegative")
        if self.L >= self.d_prime:
            raise DegenerateGeometryError(
                f"axis offset L={self.L:g} must be smaller than d_prime={self.d_prime:g}"
            )


def coupling_from_geometry(geom: GravcatGeometry) -> float:
    """Gravitational coupling gamma = (G m^2 / 2)(1/d - 1/d_prime)."""
    d = math.sqrt(geom.d_prime**2 - geom.L**2)
    return 0.5 * geom.G * geom.mass**2 * (1.0 / d - 1.0 / geom.d_prime)


_SPLITTING = tensor(PAULI_I, PAULI_Z) + tensor(PAULI_Z, PAULI_I)
_EXCHANGE = tensor(PAULI_X, PAULI_X)


def _hamiltonian(omega, gamma) -> np.ndarray:
    """Stack of 4x4 Hamiltonians over broadcast ``omega`` and ``gamma``."""
    omega = np.asarray(omega, dtype=float)[..., np.newaxis, np.newaxis]
    gamma = np.asarray(gamma, dtype=float)[..., np.newaxis, np.newaxis]
    return 0.5 * omega * _SPLITTING - gamma * _EXCHANGE


def build_hamiltonian(params: GravcatParams) -> np.ndarray:
    """4x4 Hamiltonian: (omega/2)(I(x)sz + sz(x)I) - gamma sx(x)sx."""
    return _hamiltonian(params.omega, params.gamma)


@dataclass(frozen=True)
class ThermalClosedForm:
    """Nonzero entries of the thermal state (see ``closed_form.x_state``), plus its scales.

    ``partition_function`` is 2[cosh(theta/T) + cosh(gamma/T)]; it overflows
    to inf below T ~ theta/709, but the entries themselves are evaluated in
    shifted exponential form and stay finite for any valid temperature.
    """

    alpha_minus: float
    alpha_plus: float
    beta: float
    kappa: float
    eta: float
    partition_function: float
    theta: float


def thermal_closed_form(params: GravcatParams) -> ThermalClosedForm:
    """Closed-form thermal-state entries (see ``closed_form`` for the formulas)."""
    terms = _closed_form_terms(params.omega, params.gamma, params.temperature, 1.0)
    x = params.theta / params.temperature
    if x <= 700.0:
        partition = 2.0 * (math.cosh(x) + math.cosh(params.gamma / params.temperature))
    else:
        partition = math.inf
    return ThermalClosedForm(
        alpha_minus=float(terms.alpha_minus),
        alpha_plus=float(terms.alpha_plus),
        beta=float(terms.beta),
        kappa=float(terms.kappa),
        eta=float(terms.eta),
        partition_function=partition,
        theta=params.theta,
    )


def assemble_thermal_state(cf: ThermalClosedForm) -> DensityMatrix:
    """Build and validate the 4x4 thermal state from its closed-form entries."""
    return DensityMatrix.from_array(x_state(cf), check_psd=True)


def _gibbs(hamiltonian, temperature) -> np.ndarray:
    """Stack of thermal states exp(-H/T)/Z from one eigendecomposition per matrix.

    The Boltzmann weights are taken relative to the ground energy, so they
    lie in [0, 1] and nothing overflows at any valid temperature.  Energy
    gaps reach 2 sqrt(2) times the largest entry of H, so a matrix whose
    largest entry reaches 2^1021 is scaled down with its temperature by an
    exact 2^-4 (the state depends only on H/T).
    """
    temperature = np.asarray(temperature)
    huge = np.abs(hamiltonian).max(axis=(-2, -1)) >= 2.0**1021
    if huge.any():
        scale = np.where(huge, 2.0**-4, 1.0)
        hamiltonian = hamiltonian * scale[..., np.newaxis, np.newaxis]
        temperature = temperature * scale
    spec = eigh(hamiltonian)
    ground = spec.eigenvalues[..., -1:]  # eigenvalues are descending
    with np.errstate(over="ignore"):  # a gap/T past the double range is a weight of exactly 0
        exponents = (ground - spec.eigenvalues) / temperature[..., np.newaxis]
    weights = np.exp(exponents)
    return from_spectrum(spec.eigenvectors, weights / weights.sum(axis=-1, keepdims=True))


def gibbs_numeric(hamiltonian, temperature: float) -> DensityMatrix:
    """Thermal state exp(-H/T)/Z via the spectral decomposition (see `_gibbs`)."""
    if not (math.isfinite(temperature) and temperature >= MIN_TEMPERATURE):
        raise InvalidParameterError(
            f"temperature must be positive (minimum {MIN_TEMPERATURE:g} in natural units)"
        )
    return DensityMatrix(_gibbs(hamiltonian, temperature), validated=True)
