import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings

import gravcat_coding.weak_measurement as wm_module
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
    chi_closed_form,
    gibbs_numeric,
    golden_section_maximize,
    optimize_strength,
    optimize_strength_many,
    thermal_closed_form,
    wm_state_closed_form,
)
from gravcat_coding.closed_form import _post_selected_terms
from gravcat_coding.numeric import _post_select, numeric_engine
from conftest import (
    assert_same_bits, basis_projector, finite_floats, gravcat_params, summed_entropies,
)


def thermal_state(omega, gamma, temperature):
    return assemble_thermal_state(thermal_closed_form(GravcatParams(omega, gamma, temperature)))


# ------------------------------------------------------- the operator

def kraus_conjugation(q):
    """(Q(x)Q) J (Q(x)Q)^dagger for the all-ones J, with Q = diag(1, sqrt(q)): the
    factor `_post_select` applies to each entry before it renormalizes."""
    state, success = _post_select(np.ones((4, 4)) / 4.0, q)
    return 4.0 * success * state


def test_operator_endpoints():
    # p = 0 (q = 1) is the identity, p = 1 (q = 0) the projector onto |0>(x)|0>
    assert np.array_equal(kraus_conjugation(1.0), np.ones((4, 4)))
    assert np.array_equal(kraus_conjugation(0.0), basis_projector(0))


def test_operator_intermediate_strength():
    # p = 0.75 gives Q = diag(1, 0.5), so Q(x)Q = diag(1, 0.5, 0.5, 0.25)
    k = np.array([1.0, 0.5, 0.5, 0.25])
    assert np.allclose(kraus_conjugation(0.25), np.outer(k, k), atol=1e-15)


def test_operator_rejects_out_of_range():
    rho = np.eye(4) / 4.0
    with pytest.raises(OutOfRangeError):
        apply_qwm(rho, -0.1)
    with pytest.raises(OutOfRangeError):
        apply_qwm(rho, 1.1)
    with pytest.raises(OutOfRangeError):
        apply_qwm(rho, math.nan)


# --------------------------------------------------- state conjugation

def test_zero_strength_is_identity():
    rho = thermal_state(1.0, 1.0, 1.0)
    out = apply_qwm(rho, 0.0)
    assert np.abs(out.state - rho).max() < 1e-14 and out.state.dtype == np.float64
    assert abs(out.success_probability - 1.0) < 1e-12


def test_full_strength_projects_onto_ground_corner():
    cf = thermal_closed_form(GravcatParams(1.0, 1.0, 1.0))
    out = apply_qwm(assemble_thermal_state(cf), 1.0)
    assert np.abs(out.state - basis_projector(0)).max() < 1e-12
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
    assert np.abs(out.state - expected).max() < 1e-12
    assert abs(out.success_probability - expected_ps) < 1e-12


@given(gravcat_params(), finite_floats(0.0, 0.99))
@settings(max_examples=80)
def test_closed_form_state_matches_kraus_route(params, strength):
    cf = thermal_closed_form(params)
    closed = wm_state_closed_form(cf, strength)
    kraus = apply_qwm(assemble_thermal_state(cf), strength)
    assert np.abs(closed.state - kraus.state).max() < 1e-12
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


def test_projective_endpoint_with_vanishing_branch_is_one_bit():
    # at gamma = 0 and omega/T = 1000 the kept |00> weight underflows to 0;
    # the kept state is still |00><00|, so both closed-form routes report it
    # with the float success probability, while the numeric engine, which
    # divides by that probability, still refuses
    params = GravcatParams(1.0, 0.0, 1e-3)
    report = capacity_wm_closed_form(params, 1.0)
    assert report.chi == 1.0 and report.success_probability == 0.0
    assert report.state_spectrum == (1.0, 0.0, 0.0, 0.0)
    state = wm_state_closed_form(thermal_closed_form(params), 1.0)
    assert np.array_equal(state.state, basis_projector(0)) and state.success_probability == 0.0
    with pytest.raises(ZeroSuccessProbabilityError):
        numeric_engine(params.omega, params.gamma, params.temperature, 0.0)


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


def seeded_points(shape, seed, cold=0):
    """omega, gamma in (0, 3], T log-uniform on [0.01, 10]; the first ``cold`` have T = 0.01."""
    rng = np.random.default_rng(seed)
    omega = 3.0 * (1.0 - rng.random(shape))
    gamma = 3.0 * rng.random(shape)
    temperature = 10.0 ** (-2.0 + 3.0 * rng.random(shape))
    temperature.reshape(-1)[:cold] = 0.01
    return omega, gamma, temperature


def test_batched_optimizer_equals_per_point_bit_for_bit():
    omega, gamma, temperature = seeded_points((8, 8), 2012, cold=8)
    p_star, chi_star = optimize_strength_many(omega, gamma, temperature)
    assert p_star.shape == chi_star.shape == (8, 8)
    for index in np.ndindex(8, 8):
        params = GravcatParams(omega[index], gamma[index], temperature[index])
        assert optimize_strength(params) == (p_star[index], chi_star[index]), index
    order = np.random.default_rng(3).permutation(64)
    for args, want in (
        ((omega.ravel()[order], gamma.ravel()[order], temperature.ravel()[order]),
         (p_star.ravel()[order], chi_star.ravel()[order])),
        ((omega.reshape(2, 32), gamma.reshape(2, 32), temperature.reshape(2, 32)),
         (p_star.reshape(2, 32), chi_star.reshape(2, 32))),
        ((omega.T, gamma.T, temperature.T), (p_star.T, chi_star.T)),
    ):
        got = optimize_strength_many(*args)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def summed_optimize_rows(thermal):
    """The strength search before its import-time tables, kept verbatim, scoring
    chi with the summed entropies."""
    STRENGTH_GRID_POINTS, STRENGTH_MAX = wm_module.STRENGTH_GRID_POINTS, wm_module.STRENGTH_MAX
    REFINE_POINTS, REFINE_LEVELS = wm_module.REFINE_POINTS, wm_module.REFINE_LEVELS

    def _chi_from_terms(terms):
        entropy_state, entropy_average = summed_entropies(terms)
        return entropy_average - entropy_state

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


def test_optimizer_equals_the_summed_search_bit_for_bit(monkeypatch):
    # 2,400 seeded points, 600 of them at T = 0.01, and a peak about 1e-9
    # wide at low T; batched and one point at a time
    peak = [[2.43629677990019], [0.00691859790353444], [0.01]]
    omega, gamma, temperature = np.concatenate([seeded_points(2400, 20, cold=600), peak], axis=1)
    p_star, chi_star = optimize_strength_many(omega, gamma, temperature)
    with monkeypatch.context() as patch:
        patch.setattr(wm_module, "_optimize_rows", summed_optimize_rows)
        want_p, want_chi = optimize_strength_many(omega, gamma, temperature)
    assert_same_bits(p_star, want_p)
    assert_same_bits(chi_star, want_chi)
    one_at_a_time = np.array([
        optimize_strength(GravcatParams(*point))
        for point in zip(omega.tolist(), gamma.tolist(), temperature.tolist())
    ])
    assert_same_bits(one_at_a_time[:, 0], want_p)
    assert_same_bits(one_at_a_time[:, 1], want_chi)


def test_optimizer_bits_do_not_depend_on_the_block_size(monkeypatch):
    omega, gamma, temperature = seeded_points((8, 8), 2012, cold=8)
    results = []
    for block in (1, 7, 256):
        monkeypatch.setattr(wm_module, "OPTIMIZE_BLOCK", block)
        results.append(optimize_strength_many(omega, gamma, temperature))
    for p_star, chi_star in results[1:]:
        assert np.array_equal(p_star, results[0][0]) and np.array_equal(chi_star, results[0][1])


def _peak_bytes(points: int) -> int:
    omega, gamma, temperature = seeded_points(points, 77)
    tracemalloc.start()
    try:
        optimize_strength_many(omega, gamma, temperature)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_optimizer_memory_does_not_grow_with_the_batch():
    # the scans run in fixed blocks, so 8x the points take about the same peak
    assert _peak_bytes(2048) <= 2 * _peak_bytes(256)


def synthetic_profile(monkeypatch, chi_of_q):
    """Make the optimizer score chi_of_q(q) in place of the closed form."""
    monkeypatch.setattr(wm_module, "_post_selected_terms", lambda thermal, q: thermal.z * 0 + q)
    monkeypatch.setattr(wm_module, "_chi_from_terms", chi_of_q)


def test_refinement_narrows_to_a_bracket_under_1e9(monkeypatch):
    # a kink at p = 0.37 off the scan grid: the scan brackets it within two
    # steps and four 101-point levels narrow that to 3.2e-10
    synthetic_profile(monkeypatch, lambda q: -np.abs(0.63 - q))
    p_star, chi_star = optimize_strength_many(1.0, 1.0, 1.0)
    assert abs(p_star - 0.37) <= 0.5e-9
    assert -0.5e-9 <= chi_star <= 0.0


def test_batched_optimizer_bounds():
    omega, gamma, temperature = seeded_points(200, 11, cold=40)
    p_star, chi_star = optimize_strength_many(omega, gamma, temperature)
    assert np.all((0.0 <= p_star) & (p_star < 1.0))
    assert np.all(chi_star >= chi_closed_form(omega, gamma, temperature))


def test_optimizer_reaches_the_dense_grid_maximum():
    # T = 0.01 puts the optimum on narrow plateaus; the 1001-point scan and
    # its refinement must find what a 100-fold denser grid finds
    omega, gamma, temperature = seeded_points(24, 5, cold=12)
    _, chi_star = optimize_strength_many(omega, gamma, temperature)
    dense = np.linspace(0.0, 1.0 - 1e-9, 100_001)
    for i in range(24):
        best = chi_closed_form(omega[i], gamma[i], temperature[i], 1.0 - dense).max()
        assert chi_star[i] >= best - 1e-15, i


def test_optimizer_breaks_ties_towards_the_smaller_strength():
    # gamma = 0 at omega/T = 1000 leaves the product ground state |11> to
    # double precision: every strength keeps it, so chi is exactly 1 throughout
    params = GravcatParams(omega=1.0, gamma=0.0, temperature=1e-3)
    profile = chi_closed_form(1.0, 0.0, 1e-3, 1.0 - np.linspace(0.0, 1.0 - 1e-9, 1001))
    assert np.all(profile == 1.0)
    assert optimize_strength(params) == (0.0, 1.0)


def test_refined_tie_beats_the_scan_point_at_larger_strength(monkeypatch):
    # a profile min(p, 0.3) peaks on a plateau; the scan's first maximum is
    # the grid point past 0.3, and the refinement reaches the same value at
    # a strength within its final bracket of 0.3, which wins the tie
    synthetic_profile(monkeypatch, lambda q: np.minimum(1.0 - q, 0.3))
    p_star, chi_star = optimize_strength_many(1.0, 1.0, 1.0)
    scan_point = 301 * wm_module.STRENGTH_MAX / (wm_module.STRENGTH_GRID_POINTS - 1)
    assert chi_star == 0.3
    assert 0.3 - 1e-15 <= p_star <= 0.3 + 1e-9 < scan_point


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
