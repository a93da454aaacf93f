import math

import numpy as np
import pytest
from hypothesis import assume, given, settings

from gravcat_coding import (
    GravcatParams,
    OutOfRangeError,
    ZeroSuccessProbabilityError,
    apply_qwm,
    assemble_thermal_state,
    build_hamiltonian,
    capacity_closed_form,
    capacity_numeric,
    capacity_wm_closed_form,
    gibbs_numeric,
    golden_section_maximize,
    optimize_strength,
    qwm_operator,
    thermal_closed_form,
    wm_state_closed_form,
)
from conftest import basis_projector, finite_floats, gravcat_params


def thermal_state(omega, gamma, temperature):
    return assemble_thermal_state(thermal_closed_form(GravcatParams(omega, gamma, temperature)))


# ------------------------------------------------------- the operator

def test_operator_endpoints():
    assert np.array_equal(qwm_operator(0.0), np.eye(2, dtype=complex))
    assert np.array_equal(qwm_operator(1.0), np.diag([1.0, 0.0]).astype(complex))


def test_operator_intermediate_strength():
    assert np.allclose(qwm_operator(0.75), np.diag([1.0, 0.5]), atol=1e-15)


def test_operator_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        qwm_operator(-0.1)
    with pytest.raises(OutOfRangeError):
        qwm_operator(1.1)
    with pytest.raises(OutOfRangeError):
        qwm_operator(math.nan)


# --------------------------------------------------- state conjugation

def test_zero_strength_is_identity():
    rho = thermal_state(1.0, 1.0, 1.0)
    out = apply_qwm(rho, 0.0)
    assert np.abs(out.state.matrix - rho.matrix).max() < 1e-14
    assert abs(out.success_probability - 1.0) < 1e-12


def test_full_strength_projects_onto_ground_corner():
    cf = thermal_closed_form(GravcatParams(1.0, 1.0, 1.0))
    out = apply_qwm(assemble_thermal_state(cf), 1.0)
    assert np.abs(out.state.matrix - basis_projector(0)).max() < 1e-12
    assert abs(out.success_probability - cf.alpha_minus) < 1e-14


def test_full_strength_on_orthogonal_state_fails():
    with pytest.raises(ZeroSuccessProbabilityError):
        apply_qwm(basis_projector(3), 1.0)


def test_half_strength_entry_pattern():
    # conjugation scales the corners by (1-p) and (1-p)^2 and the middle
    # block by (1-p); checked against the Kraus route at p = 0.5
    cf = thermal_closed_form(GravcatParams(1.0, 1.0, 1.0))
    rho = assemble_thermal_state(cf)
    out = apply_qwm(rho, 0.5)
    expected_ps = cf.alpha_minus + 2.0 * cf.beta * 0.5 + cf.alpha_plus * 0.25
    expected = np.array(
        [
            [cf.alpha_minus, 0.0, 0.0, 0.5 * cf.kappa],
            [0.0, 0.5 * cf.beta, 0.5 * cf.eta, 0.0],
            [0.0, 0.5 * cf.eta, 0.5 * cf.beta, 0.0],
            [0.5 * cf.kappa, 0.0, 0.0, 0.25 * cf.alpha_plus],
        ]
    ) / expected_ps
    assert np.abs(out.state.matrix - expected).max() < 1e-12
    assert abs(out.success_probability - expected_ps) < 1e-12


@given(gravcat_params(), finite_floats(0.0, 0.99))
@settings(max_examples=80)
def test_closed_form_state_matches_kraus_route(params, strength):
    cf = thermal_closed_form(params)
    closed = wm_state_closed_form(cf, strength)
    kraus = apply_qwm(assemble_thermal_state(cf), strength)
    assert np.abs(closed.state.matrix - kraus.state.matrix).max() < 1e-12
    assert abs(closed.success_probability - kraus.success_probability) < 1e-12


@given(gravcat_params())
@settings(max_examples=40)
def test_success_probability_is_nonincreasing(params):
    cf = thermal_closed_form(params)
    probs = [wm_state_closed_form(cf, p).success_probability for p in np.linspace(0.0, 1.0, 21)]
    assert all(0.0 < p <= 1.0 + 1e-12 for p in probs)
    assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


# -------------------------------------------------- capacity closed form

def test_zero_strength_reduces_to_plain_capacity():
    for omega, gamma, temperature in ((1.0, 1.0, 1.0), (2.0, 0.3, 0.2), (0.5, 3.0, 5.0)):
        params = GravcatParams(omega, gamma, temperature)
        with_wm = capacity_wm_closed_form(params, 0.0)
        plain = capacity_closed_form(params)
        assert abs(with_wm.chi - plain.chi) < 1e-12


def test_capacity_at_projective_endpoint_is_exactly_one_bit():
    # p = 1 leaves the |00> projector: no limit is needed, chi is exactly 1
    for omega, gamma, temperature in ((1.0, 1.0, 1.0), (2.0, 0.0, 0.3), (0.5, 3.0, 5.0)):
        report = capacity_wm_closed_form(GravcatParams(omega, gamma, temperature), 1.0)
        assert report.chi == 1.0
        assert report.state_spectrum == (1.0, 0.0, 0.0, 0.0)
    with pytest.raises(OutOfRangeError):
        capacity_wm_closed_form(GravcatParams(1, 1, 1), 1.0 + 1e-12)


def test_projective_endpoint_with_vanishing_branch_raises():
    # at gamma = 0 and omega/T = 1000 the kept |00> weight underflows to 0
    with pytest.raises(ZeroSuccessProbabilityError):
        capacity_wm_closed_form(GravcatParams(1.0, 0.0, 1e-3), 1.0)


def test_capacity_near_projective_limit_is_one_bit():
    report = capacity_wm_closed_form(GravcatParams(1.0, 1.0, 1.0), 1.0 - 1e-12)
    assert abs(report.chi - 1.0) < 1e-9


@given(gravcat_params(), finite_floats(0.0, 0.99))
@settings(max_examples=60)
def test_capacity_closed_form_matches_numeric(params, strength):
    closed = capacity_wm_closed_form(params, strength)
    rho = gibbs_numeric(build_hamiltonian(params), params.temperature)
    numeric = capacity_numeric(apply_qwm(rho, strength).state)
    assert abs(closed.chi - numeric.chi) < 1e-9


def test_reference_point_against_numeric():
    params = GravcatParams(1.0, 1.0, 1.0)
    closed = capacity_wm_closed_form(params, 0.3)
    numeric = capacity_numeric(apply_qwm(thermal_state(1.0, 1.0, 1.0), 0.3).state)
    assert abs(closed.chi - numeric.chi) < 1e-9
    assert closed.strength == 0.3
    assert closed.success_probability is not None


@given(gravcat_params(), finite_floats(0.0, 0.99))
@settings(max_examples=60)
def test_average_state_halves_sum_to_one(params, strength):
    cf = thermal_closed_form(params)
    q = 1.0 - strength
    success = cf.alpha_minus + 2.0 * cf.beta * q + cf.alpha_plus * q * q
    nu = (cf.alpha_minus + cf.beta * q) / success
    mu = (cf.alpha_plus * q * q + cf.beta * q) / success
    assert abs(nu + mu - 1.0) < 1e-12


@given(gravcat_params())
@settings(max_examples=30)
def test_boundary_continuity_towards_full_collapse(params):
    # the approach to chi = 1 is resolved at p = 1 - 1e-9 once the coupling
    # is not negligible against the splitting; in the near-product cold
    # corner (gamma << omega, omega/T ~ 21) the crossover q ~ exp(-omega/T)
    # sits below 1e-9 and the limit needs a deeper p (see the test below)
    assume(params.gamma >= params.omega / 3.0)
    report = capacity_wm_closed_form(params, 1.0 - 1e-9)
    assert abs(report.chi - 1.0) < 1e-5


def test_boundary_limit_in_the_slow_corner():
    # gamma = 0 with omega/T = 20.7 puts the post-selection crossover right
    # at q ~ 1e-9: chi(1 - 1e-9) is nowhere near 1, yet the p -> 1 limit is
    # still 1, approached once q falls below the thermal weight ratio
    params = GravcatParams(omega=2.07, gamma=0.0, temperature=0.1)
    shallow = capacity_wm_closed_form(params, 1.0 - 1e-9).chi
    deeper = capacity_wm_closed_form(params, 1.0 - 1e-12).chi
    deepest = capacity_wm_closed_form(params, 1.0 - 1e-15).chi
    assert shallow < 0.01
    assert shallow < deeper < deepest < 1.0
    assert abs(deepest - 1.0) < 1e-3


# ------------------------------------------------------- optimization

def test_golden_section_finds_parabola_peak():
    # peak value 0 keeps full float resolution near the maximum; an additive
    # offset would flatten the function below machine epsilon there
    peak = lambda x: -((x - 0.37) ** 2)
    x, fx = golden_section_maximize(peak, 0.0, 1.0, tol=1e-9)
    assert abs(x - 0.37) < 5e-9
    assert abs(fx) < 1e-16
    assert golden_section_maximize(peak, 0.0, 1.0, tol=1e-9) == (x, fx)


def test_optimizer_keeps_zero_when_measurement_cannot_help():
    # a product state: chi(p) is strictly decreasing, so p* = 0 exactly
    params = GravcatParams(omega=2.0, gamma=0.0, temperature=0.1)
    p_star, chi_star = optimize_strength(params)
    assert p_star == 0.0
    assert chi_star == capacity_wm_closed_form(params, 0.0).chi


def test_optimizer_beats_no_measurement_at_reference_point():
    params = GravcatParams(1.0, 1.0, 1.0)
    p_star, chi_star = optimize_strength(params)
    chi_zero = capacity_wm_closed_form(params, 0.0).chi
    assert chi_star > chi_zero
    assert 0.0 <= p_star <= 1.0 - 1e-9


def test_optimizer_finds_interior_peak():
    # stronger couplings put the best strength strictly inside (0, 1)
    params = GravcatParams(3.0, 3.0, 1.0)
    p_star, chi_star = optimize_strength(params)
    assert 0.1 < p_star < 0.95
    assert chi_star > 1.0


@given(gravcat_params())
@settings(max_examples=15)
def test_optimizer_never_loses_to_zero_strength(params):
    _, chi_star = optimize_strength(params)
    assert chi_star >= capacity_wm_closed_form(params, 0.0).chi - 1e-12


def test_wider_optimal_plateau_at_stronger_couplings():
    # at moderate temperatures the near-optimal strength window at
    # omega = gamma = 3 is wider than at omega = gamma = 1; towards T -> 0
    # both collapse onto the same one-parameter family (equal widths) and by
    # T ~ 2 both maxima sit at the p -> 1 boundary, so the comparison is
    # meaningful only in between
    grid = np.linspace(0.0, 1.0 - 1e-9, 4001)
    for temperature in (0.5, 1.0):
        widths = {}
        for scale in (1.0, 3.0):
            params = GravcatParams(scale, scale, temperature)
            chis = np.array([capacity_wm_closed_form(params, p).chi for p in grid])
            widths[scale] = float((chis >= chis.max() - 1e-3).mean())
        assert widths[3.0] > widths[1.0]
