"""The general-state wrappers as a subject of their own: their domain and input
checks, their refusal of complex input, `PostSelectedState`, `matrix_function`
and `golden_section_maximize`; and the scalar wrappers `cell_capacity` and
`draw_sample` against the API they wrap.

No CLI command runs these wrappers; the benchmark under ``perfbench/`` still
traces or calls them (README, "Wrappers kept for the benchmark").  Every
other test module reaches the physics through the two engines and their
kernels, and ``test_import_graph.py`` checks that no other module names one
of ``WRAPPER_NAMES``.  So retiring the wrappers retires this module with
them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from gravcat_coding import (
    Advantage,
    GravcatParams,
    InvalidParameterError,
    NotHermitianError,
    OutOfRangeError,
    SplitMix64,
    apply_qwm,
    capacity_numeric,
    cell_capacity,
    draw_samples,
    gibbs_numeric,
)
from gravcat_coding.coding import ENGINES, engine_report
from gravcat_coding.linalg import NonFiniteResultError, matrix_function
from gravcat_coding.numeric import _EXCHANGE, _SPLITTING
from gravcat_coding.thermal import thermal_closed_form
from gravcat_coding.verify import draw_sample
from gravcat_coding.weak_measurement import golden_section_maximize, wm_state_closed_form
from conftest import (
    DOMAIN_CASES, VALID_POINT, basis_projector, hermitian_matrices, maximally_mixed,
)

# the seventeen wrappers, with the two constants of golden_section_maximize
WRAPPER_NAMES = (
    "capacity_numeric", "ensemble_average", "ensemble_average_via_marginal",
    "apply_qwm", "PostSelectedState",
    "gibbs_numeric", "build_hamiltonian",
    "matrix_function", "NonFiniteResultError",
    "thermal_closed_form", "assemble_thermal_state", "wm_state_closed_form",
    "golden_section_maximize", "_INV_PHI", "_INV_PHI_SQ",
    "capacity_closed_form", "capacity_wm_closed_form",
    "cell_capacity", "draw_sample",
)

SQRT2 = math.sqrt(2.0)
# the model's Hamiltonian at omega = 1, gamma = 1
COUPLED = 0.5 * _SPLITTING - _EXCHANGE


# ------------------------------------------------------- input checks

@pytest.mark.parametrize(
    "route",
    [
        capacity_numeric,
        lambda m: gibbs_numeric(m, 1.0),
        lambda m: apply_qwm(m, 0.5),
        lambda m: matrix_function(m, math.exp),
    ],
    ids=["capacity_numeric", "gibbs_numeric", "apply_qwm", "matrix_function"],
)
def test_complex_input_is_refused(route):
    # a valid Hermitian state; dropping its imaginary part would change it silently
    rho = maximally_mixed(4).astype(complex)
    rho[1, 2], rho[2, 1] = 0.1j, -0.1j
    with pytest.raises(TypeError, match="dtype complex128"):
        route(rho)


@pytest.mark.parametrize(
    "route",
    [lambda m: gibbs_numeric(m, 1.0), lambda m: matrix_function(m, math.exp)],
    ids=["gibbs_numeric", "matrix_function"],
)
def test_asymmetric_input_is_refused(route):
    # the engines' Hamiltonians skip the symmetry scan; a matrix from outside
    # the package is scanned and refused
    with pytest.raises(NotHermitianError, match="deviates from Hermitian symmetry"):
        route(COUPLED + np.triu(np.full((4, 4), 1e-6), 1))


# entry point -> (the parameters it takes, a call at one point)
ENTRY_POINTS = {
    "gibbs_numeric": ({"T"}, lambda pt, mp: gibbs_numeric(np.diag([1.0, -1.0]), pt["T"])),
    "apply_qwm": ({"p"}, lambda pt, mp: apply_qwm(maximally_mixed(4), pt["p"])),
}


@pytest.mark.parametrize(
    "entry, name, value, error",
    [
        pytest.param(entry, name, value, error, id=f"{entry}-{name}={value}")
        for entry, (takes, _) in ENTRY_POINTS.items()
        for name, value, error in DOMAIN_CASES
        if name in takes
    ],
)
def test_every_entry_point_applies_every_domain_rule(monkeypatch, entry, name, value, error):
    call = ENTRY_POINTS[entry][1]
    with pytest.raises(InvalidParameterError) as info:
        call({**VALID_POINT, name: value}, monkeypatch)
    assert type(info.value) is error
    call(VALID_POINT, monkeypatch)  # the valid point passes


def test_operator_rejects_out_of_range():
    rho = np.eye(4) / 4.0
    with pytest.raises(OutOfRangeError):
        apply_qwm(rho, -0.1)
    with pytest.raises(OutOfRangeError):
        apply_qwm(rho, 1.1)
    with pytest.raises(OutOfRangeError):
        apply_qwm(rho, math.nan)


def test_capacity_of_maximally_mixed_is_zero(symmetry_scans):
    report = capacity_numeric(maximally_mixed(4))
    assert abs(report.chi) < 1e-10
    assert report.advantage is Advantage.NONE
    assert symmetry_scans == [1]  # the input; its twirl is symmetric by construction


# -------------------------------------------------- post-selected state

def test_projective_state_with_vanishing_branch():
    # at gamma = 0 and omega/T = 1000 the kept |00> weight underflows to 0;
    # the kept state is still |00><00|, with the float success probability
    state = wm_state_closed_form(thermal_closed_form(GravcatParams(1.0, 0.0, 1e-3)), 1.0)
    assert np.array_equal(state.state, basis_projector(0)) and state.success_probability == 0.0


# ---------------------------------------------------- matrix_function

def _taylor_expm(m: np.ndarray, terms: int = 40) -> np.ndarray:
    """Independent oracle: scaled-and-squared Taylor series for exp(m)."""
    halvings = 0
    scaled = np.asarray(m, dtype=float)
    while np.linalg.norm(scaled) > 0.9:  # Frobenius bounds the spectral radius
        scaled = scaled / 2.0
        halvings += 1
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ scaled / k
        out = out + term
    for _ in range(halvings):
        out = out @ out
    return out


def test_matrix_function_exp_of_zero_is_identity():
    out = matrix_function(np.zeros((4, 4)), math.exp)
    assert np.allclose(out, np.eye(4), atol=1e-15)


def test_matrix_function_acts_on_diagonal():
    out = matrix_function(np.diag([math.log(2.0), 0.0]), math.exp)
    assert np.allclose(out, np.diag([2.0, 1.0]), atol=1e-14)


def test_matrix_function_exp_trace_matches_partition_sum():
    out = matrix_function(-COUPLED, math.exp)
    expected = 2.0 * (math.cosh(SQRT2) + math.cosh(1.0))
    assert math.isclose(float(np.trace(out)), expected, rel_tol=0, abs_tol=1e-12)


@given(hermitian_matrices(dim=4, scale=2.5))  # Frobenius, hence spectral radius, <= 5
@settings(max_examples=60)
def test_matrix_function_exp_matches_taylor_series(m):
    assert np.abs(matrix_function(m, math.exp) - _taylor_expm(m)).max() < 1e-9


def test_matrix_function_overflow_raises():
    with pytest.raises(NonFiniteResultError):
        matrix_function(np.diag([800.0, 0.0]), math.exp)


def test_matrix_function_nan_raises():
    with pytest.raises(NonFiniteResultError):
        matrix_function(np.diag([2.0, 0.0]), lambda x: float("nan"))


# ------------------------------------------------------- golden section

def test_golden_section_finds_parabola_peak():
    # peak value 0 keeps full float resolution near the maximum; an additive
    # offset would flatten the function below machine epsilon there
    peak = lambda x: -((x - 0.37) ** 2)
    x, fx = golden_section_maximize(peak, 0.0, 1.0, tol=1e-9)
    assert abs(x - 0.37) < 5e-9
    assert abs(fx) < 1e-16
    assert golden_section_maximize(peak, 0.0, 1.0, tol=1e-9) == (x, fx)


# ------------------------------------------------------ scalar wrappers

@pytest.mark.parametrize("engine", ["closed_form", "numeric"])
def test_cell_capacity_is_the_engine_report(engine):
    draws = draw_samples(SplitMix64(2026), 50).tolist()
    for omega, gamma, temperature, p in draws:
        params = GravcatParams(omega, gamma, temperature)
        for strength in (None, p):
            want = engine_report(ENGINES[engine], params, strength).chi
            got = cell_capacity(engine, omega, gamma, temperature, strength)
            assert got == want, (omega, gamma, temperature, strength)


@pytest.mark.parametrize("seed", [0, 42, 123456789])
def test_draw_sample_is_a_row_of_draw_samples(seed):
    batched, single = SplitMix64(seed), SplitMix64(seed)
    for row in draw_samples(batched, 9).tolist():
        params, strength = draw_sample(single)
        assert type(params) is GravcatParams
        assert row == [params.omega, params.gamma, params.temperature, strength]
    assert batched.state == single.state
