"""Shared strategies and state helpers for the test suite."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

import gravcat_coding.linalg as linalg_module
from gravcat_coding import (
    CHECKS, GravcatParams, InvalidParameterError, OutOfRangeError, SplitMix64, chi_closed_form,
    chi_numeric, draw_samples,
)
from gravcat_coding.closed_form import _post_selected_terms, _thermal_terms, x_state
from gravcat_coding.coding import CapacityReport, capacity_report
from gravcat_coding.linalg import _PAULI_I, _PAULI_X, _PAULI_Z, check_density
from gravcat_coding.numeric import (
    _entropies, _gibbs, _hamiltonian, _marginal_replacement, _post_select, _twirl,
)

settings.register_profile(
    "gravcat",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("gravcat")


def finite_floats(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian_matrices(draw, dim: int = 4, scale: float = 1.0):
    """Real symmetric matrices with entries drawn in [-1, 1] and symmetrized."""
    n = dim * dim
    m = np.array(draw(st.lists(finite_floats(-1, 1), min_size=n, max_size=n))).reshape(dim, dim)
    return scale * 0.5 * (m + m.T)


@st.composite
def density_matrices(draw, dim: int = 4):
    """Full-rank random real density matrices (real Ginibre plus a small ridge)."""
    n = dim * dim
    g = np.array(draw(st.lists(finite_floats(-1, 1), min_size=n, max_size=n))).reshape(dim, dim)
    gram = g @ g.T + 1e-3 * np.eye(dim)
    return gram / np.trace(gram)


@st.composite
def pure_states(draw, dim: int = 4):
    """Random real pure-state projectors."""
    vec = np.array(draw(st.lists(finite_floats(-1, 1), min_size=dim, max_size=dim)))
    norm = float(np.linalg.norm(vec))
    assume(norm > 1e-3)
    vec = vec / norm
    return np.outer(vec, vec)


@st.composite
def gravcat_params(draw, omega_lo: float = 0.05, t_lo: float = 0.05, t_hi: float = 10.0):
    return GravcatParams(
        omega=draw(finite_floats(omega_lo, 5.0)),
        gamma=draw(finite_floats(0.0, 5.0)),
        temperature=draw(finite_floats(t_lo, t_hi)),
    )


# the four dense-coding signals s (x) I, s = I, X, Y, Z, as real matrices:
# sigma_x sigma_z = -i sigma_y stands in for sigma_y
SIGNALS = tuple(
    np.kron(sigma, _PAULI_I) for sigma in (_PAULI_I, _PAULI_X, _PAULI_X @ _PAULI_Z, _PAULI_Z)
)


@pytest.fixture
def solve_counts(monkeypatch):
    """Calls and matrices solved by ``np.linalg.eigh`` and ``np.linalg.eigvalsh``.

    Both are wrapped with counters for the test; ``counts[name]`` is
    ``[calls, matrices]``.
    """
    counts = {"eigh": [0, 0], "eigvalsh": [0, 0]}
    for name in counts:
        def counting(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            counts[_name][0] += 1
            counts[_name][1] += math.prod(np.shape(a)[:-2])
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


@pytest.fixture
def symmetry_scans(monkeypatch):
    """Calls of ``linalg.require_hermitian``, the symmetry scan, as ``[calls]``."""
    calls = [0]
    scan = linalg_module.require_hermitian

    def counting(m):
        calls[0] += 1
        return scan(m)

    monkeypatch.setattr(linalg_module, "require_hermitian", counting)
    return calls


def fresh_python(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports the
    package from this checkout; a nonzero exit fails with its stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def bell_state() -> np.ndarray:
    """(|00> + |11>)/sqrt(2) as a projector."""
    vec = np.zeros(4)
    vec[0] = vec[3] = 1.0 / math.sqrt(2.0)
    return np.outer(vec, vec)


def basis_projector(index: int, dim: int = 4) -> np.ndarray:
    m = np.zeros((dim, dim))
    m[index, index] = 1.0
    return m


def maximally_mixed(dim: int = 4) -> np.ndarray:
    return np.eye(dim) / dim


def boltzmann_weights(omega: float, gamma: float, temperature: float) -> np.ndarray:
    """Thermal eigenvalues from the analytic level set {+-theta, +-gamma},
    computed independently of the package (shifted so nothing overflows)."""
    theta = math.hypot(omega, gamma)
    energies = np.array([-theta, -gamma, gamma, theta])
    weights = np.exp(-(energies - energies.min()) / temperature)
    weights = weights / weights.sum()
    return np.sort(weights)[::-1]


# the closed form's entropies as a sum of -v log2 v terms from 0, kept
# verbatim from before its three-call kernel: the kernel must match these
# bits, signed zeros included
def summed_entropy_bits(*values):
    """Sum of -v log2 v; an exact 0 contributes 0 and a NaN propagates."""
    return sum(-v * np.log2(v + (v == 0.0)) for v in values)


def summed_entropies(terms):
    """(S(rho), S(rho_bar)) of closed-form terms by `summed_entropy_bits`: rows 0-3
    of the stack are the spectrum, rows 4-5 nu and mu."""
    return summed_entropy_bits(*terms.stack[:4]), 1.0 + summed_entropy_bits(*terms.stack[4:])


# the numeric engine kept verbatim from before it dropped its up-front
# broadcast, when every cell solved its own Hamiltonian: the engine must
# match these bits
def broadcast_numeric_engine(omega, gamma, temperature, q):
    """(spectrum, S(rho), S(rho_bar), success) with every input broadcast first."""
    omega, gamma, temperature, q = np.broadcast_arrays(omega, gamma, temperature, q)
    state, success = _post_select(_gibbs(_hamiltonian(omega, gamma), temperature), q)
    return (*_entropies(state, _twirl(state)), success)


def log_uniform_box(n, seed):
    """The golden table's box, the optimizer's wide box in its first three arrays:
    omega 10^U(-3,3); gamma 10^U(-6,3) or 0; T 10^U(-6,3); q 10^U(-9,0), 1 or 0."""
    rng = np.random.default_rng(seed)
    omega = 10.0 ** rng.uniform(-3.0, 3.0, n)
    gamma = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-6.0, 3.0, n))
    temperature = 10.0 ** rng.uniform(-6.0, 3.0, n)
    q = 10.0 ** rng.uniform(-9.0, 0.0, n)
    q[::10], q[5::50] = 1.0, 0.0
    return omega, gamma, temperature, q


CHI = {"closed_form": chi_closed_form, "numeric": chi_numeric}  # keyed as `coding.ENGINES`


def assert_same_bits(got, want) -> None:
    """Equal float64 bits where ``want`` is not NaN, and NaN where it is;
    ``==`` would hide the sign of a zero."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def gibbs_state(params: GravcatParams) -> np.ndarray:
    """The numeric engine's thermal state exp(-H/T)/Z at one point."""
    return _gibbs(_hamiltonian(params.omega, params.gamma), params.temperature)


def state_report(rho) -> CapacityReport:
    """The capacity report of one real two-qubit state, from the numeric engine's
    entropies of ``rho`` and of its Pauli twirl."""
    return capacity_report(*_entropies(rho, _twirl(rho)))


# every rule of the domain, as (parameter, bad value, error class)
DOMAIN_CASES = [
    *(("omega", v, InvalidParameterError) for v in (-1.0, -math.ulp(0.0), math.nan, math.inf)),
    *(("gamma", v, InvalidParameterError) for v in (-0.5, math.nan)),
    *(("T", v, InvalidParameterError) for v in (0.0, -0.1, 1e-7, math.nan)),
    *(("p", v, OutOfRangeError) for v in (-0.1, 1.5, math.nan)),
]
VALID_POINT = {"omega": 1.0, "gamma": 0.5, "T": 0.8, "p": 0.3}


def _max_abs(a, b) -> float:
    return float(np.abs(a - b).max())


def per_sample_route(samples: int, seed: int) -> dict:
    """Every `verify` check replayed one draw at a time, on scalars, through the
    kernels of both engines, as the batched report's reference.

    Returns, per check, (max_deviation, worst_sample): the maximum starts at
    0.0, and the worst sample is the first draw that reaches it.
    """
    rng = SplitMix64(seed)
    deviations = {name: [] for name, _ in CHECKS}
    points = []
    for _ in range(samples):
        omega, gamma, temperature, strength = draw_samples(rng, 1)[0].tolist()
        params = GravcatParams(omega, gamma, temperature)
        points.append((omega, gamma, temperature, strength))
        q = 1.0 - strength  # draws stop at p = 0.99, so the kept branch never vanishes
        thermal = _thermal_terms(omega, gamma, temperature)
        rho_cf = check_density(x_state(thermal))
        rho_num = gibbs_state(params)
        wm_success = _post_selected_terms(thermal, q).success
        wm_cf = x_state(thermal, q) / wm_success
        wm_kraus, kraus_success = _post_select(rho_cf, q)
        plain_num, _ = _post_select(rho_num, 1.0)  # the numeric engine's p = 0 state
        wm_num, _ = _post_select(rho_num, q)
        found = {
            "thermal_state_closed_vs_numeric": [_max_abs(rho_cf, rho_num)],
            "capacity_closed_vs_numeric": [
                abs(chi_closed_form(omega, gamma, temperature) - state_report(plain_num).chi)
            ],
            "wm_state_closed_vs_kraus": [
                _max_abs(wm_cf, wm_kraus), abs(float(wm_success) - float(kraus_success)),
            ],
            "wm_capacity_closed_vs_numeric": [
                abs(chi_closed_form(omega, gamma, temperature, q) - state_report(wm_num).chi)
            ],
            "twirl_vs_marginal_identity": [
                _max_abs(_twirl(rho), _marginal_replacement(rho)) for rho in (plain_num, wm_num)
            ],
        }
        for name, values in found.items():
            deviations[name].append(float(max(values)))
    out = {}
    for name, values in deviations.items():
        worst = max([0.0, *values])
        index = values.index(worst) if worst in values else None
        point = None
        if index is not None:
            point = {"index": index, **dict(zip(("omega", "gamma", "temp", "p"), points[index]))}
        out[name] = (worst, point)
    return out
