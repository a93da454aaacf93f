"""The two-gravcat model: its parameters, their domain and the well geometry.

Two double-well qubits, each with level splitting ``omega``, are coupled by a
gravity-induced sigma_x (x) sigma_x exchange of strength ``gamma``, in natural
units with k_B = 1.  `check_domain` is the one rule set of the parameter
domain.  The thermal state is computed by the two engines, ``closed_form``
and ``numeric``; the wrappers here stay only because the benchmark's tracer
pins them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numeric
from .closed_form import ThermalTerms, _thermal_terms, x_state
from .linalg import LocatedError, check_density

MIN_TEMPERATURE = 1e-6  # the Gibbs form is singular at T = 0


class InvalidParameterError(LocatedError):
    """Model parameter outside its validity domain; ``index`` locates it in an array."""


class DegenerateGeometryError(ValueError):
    """Well geometry with no real inter-axis distance (L >= d_prime)."""


class OutOfRangeError(InvalidParameterError):
    """Measurement strength outside [0, 1]."""


# The domain: per parameter, the closed interval of doubles it must lie in, its error
# class and message.  Bounds are finite, so NaN and +-inf fail; math.ulp(0.0) > 0 is omega > 0.
_MAX = float(np.finfo(float).max)
_DOMAIN = (
    (math.ulp(0.0), _MAX, InvalidParameterError,
     "omega must be finite and positive (allow_zero_omega, or --allow-zero-omega on capacity,"
     " sweep and optimize, permits omega = 0)"),
    (0.0, _MAX, InvalidParameterError, "gamma must be finite and nonnegative"),
    (MIN_TEMPERATURE, _MAX, InvalidParameterError,
     f"temperature must be positive and finite (minimum {MIN_TEMPERATURE:g} in natural units)"),
    (0.0, 1.0, OutOfRangeError, "measurement strength must lie in [0, 1]"),
)
_ZERO_OMEGA = (0.0, _MAX, InvalidParameterError, "omega must be finite and nonnegative")
_UNSET = object()  # the default of a parameter not given; None is checked and fails


def check_domain(
    *, omega=_UNSET, gamma=_UNSET, temperature=_UNSET, strength=_UNSET, allow_zero_omega=False
) -> None:
    """Raise unless each parameter given, a number or an array, lies in the domain.

    ``allow_zero_omega`` admits omega = 0.  The error is ``OutOfRangeError``
    for the strength and ``InvalidParameterError`` otherwise; its ``index``
    locates the first bad element of the offending array (``()`` for a number).
    """
    rules = (_ZERO_OMEGA, *_DOMAIN[1:]) if allow_zero_omega else _DOMAIN
    for value, (low, high, error, message) in zip((omega, gamma, temperature, strength), rules):
        # a Python float takes one chained comparison; anything else goes through numpy
        if value is not _UNSET and not (type(value) is float and low <= value <= high):
            value = np.asarray(value)
            error.raise_first(~((low <= value) & (value <= high)), value, message + ", got {}")


@dataclass(frozen=True, slots=True)
class GravcatParams:
    """Model knobs in natural units (k_B = 1).

    ``omega`` is the qubit level splitting, ``gamma`` the gravitational
    exchange coupling, ``temperature`` the bath temperature.  ``omega = 0``
    makes two pairs of thermal levels cross; it is physically fine but must
    be opted into with ``allow_zero_omega``.
    """

    omega: float
    gamma: float
    temperature: float
    allow_zero_omega: bool = False

    def __post_init__(self) -> None:
        check_domain(
            omega=self.omega, gamma=self.gamma, temperature=self.temperature,
            allow_zero_omega=self.allow_zero_omega,
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


def build_hamiltonian(params: GravcatParams) -> np.ndarray:
    """4x4 Hamiltonian: (omega/2)(I(x)sz + sz(x)I) - gamma sx(x)sx."""
    return numeric._hamiltonian(params.omega, params.gamma)


def thermal_closed_form(params: GravcatParams) -> ThermalTerms:
    """Closed-form thermal-state entries (see ``closed_form`` for the formulas)."""
    return _thermal_terms(params.omega, params.gamma, params.temperature)


def assemble_thermal_state(cf: ThermalTerms) -> np.ndarray:
    """Build and validate the 4x4 thermal state from its closed-form entries."""
    return check_density(x_state(cf), check_psd=True)


def gibbs_numeric(hamiltonian, temperature: float) -> np.ndarray:
    """Thermal state exp(-H/T)/Z via the spectral decomposition (see `_gibbs`)."""
    check_domain(temperature=temperature)
    return numeric._gibbs(hamiltonian, temperature)
