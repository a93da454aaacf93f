"""The two-gravcat model: its parameters, their domain and the well geometry.

Two double-well qubits, each with level splitting ``omega``, are coupled by a
gravity-induced sigma_x (x) sigma_x exchange of strength ``gamma``, in natural
units with k_B = 1.  `check_domain` is the one rule set of the parameter
domain.  The thermal state is computed by the two engines, ``closed_form``
and ``numeric``.  No command runs the wrappers `build_hamiltonian`,
`gibbs_numeric`, `thermal_closed_form` and `assemble_thermal_state`; the
README's "Wrappers kept for the benchmark" says why they stay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import ThermalTerms, _thermal_terms, x_state
from .linalg import LocatedError, check_density, require_hermitian
from .numeric import _gibbs, _hamiltonian

MIN_TEMPERATURE = 1e-6  # the Gibbs form is singular at T = 0


class InvalidParameterError(LocatedError):
    """Model parameter outside its validity domain; ``index`` locates it in an array."""


class DegenerateGeometryError(ValueError):
    """Well geometry with no real inter-axis distance (L >= d_prime)."""


class OutOfRangeError(InvalidParameterError):
    """Measurement strength outside [0, 1]."""


# The domain: per parameter, the closed interval of doubles it must lie in, its error
# class and message.  Bounds are finite, so NaN and +-inf fail.
_MAX = float(np.finfo(float).max)
_DOMAIN = (
    (0.0, _MAX, InvalidParameterError, "omega must be finite and nonnegative"),
    (0.0, _MAX, InvalidParameterError, "gamma must be finite and nonnegative"),
    (MIN_TEMPERATURE, _MAX, InvalidParameterError,
     f"temperature must be positive and finite (minimum {MIN_TEMPERATURE:g} in natural units)"),
    (0.0, 1.0, OutOfRangeError, "measurement strength must lie in [0, 1]"),
)
_UNSET = object()  # the default of a parameter not given; None is checked and fails


def check_domain(*, omega=_UNSET, gamma=_UNSET, temperature=_UNSET, strength=_UNSET) -> None:
    """Raise unless each parameter given, a number or an array, lies in the domain.

    The domain is omega >= 0, gamma >= 0, temperature >= 1e-6 and strength
    in [0, 1], all finite.  The error is ``OutOfRangeError`` for the strength
    and ``InvalidParameterError`` otherwise; its ``index`` locates the first
    bad element of the offending array (``()`` for a number).
    """
    for value, (low, high, error, message) in zip((omega, gamma, temperature, strength), _DOMAIN):
        # a Python float takes one chained comparison; anything else goes through numpy,
        # compared in float64: cast to float32, the bounds would round and _MAX overflow
        if value is not _UNSET and not (type(value) is float and low <= value <= high):
            value = np.asarray(value)
            inside = (np.float64(low) <= value) & (value <= np.float64(high))
            error.raise_first(~inside, value, message + ", got {}")


@dataclass(frozen=True, slots=True)
class GravcatParams:
    """Model knobs in natural units (k_B = 1).

    ``omega >= 0`` is the qubit level splitting (``omega = 0`` is the
    pure-coupling limit), ``gamma >= 0`` the gravitational exchange coupling
    and ``temperature >= 1e-6`` the bath temperature; `check_domain` holds
    the rules.  The fields are stored as Python floats, so a numpy scalar
    such as a float32 is evaluated in double precision.
    """

    omega: float
    gamma: float
    temperature: float

    def __post_init__(self) -> None:
        check_domain(omega=self.omega, gamma=self.gamma, temperature=self.temperature)
        if not type(self.omega) is type(self.gamma) is type(self.temperature) is float:
            for name in ("omega", "gamma", "temperature"):
                object.__setattr__(self, name, float(getattr(self, name)))


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
    return _hamiltonian(params.omega, params.gamma)


def thermal_closed_form(params: GravcatParams) -> ThermalTerms:
    """Closed-form thermal-state entries (see ``closed_form`` for the formulas)."""
    return _thermal_terms(params.omega, params.gamma, params.temperature)


def assemble_thermal_state(cf: ThermalTerms) -> np.ndarray:
    """Build and validate the 4x4 thermal state from its closed-form entries."""
    return check_density(x_state(cf), check_psd=True)


def gibbs_numeric(hamiltonian, temperature: float) -> np.ndarray:
    """Thermal state exp(-H/T)/Z via the spectral decomposition (see `_gibbs`), once
    ``hamiltonian`` passed the symmetry scan `require_hermitian`."""
    check_domain(temperature=temperature)
    return _gibbs(require_hermitian(hamiltonian), temperature)
