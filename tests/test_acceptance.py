"""Acceptance gate: every release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by; the suite re-derives every expected value from an independent route
(seeded dual-engine sweeps, analytic Boltzmann weights, hand-built states).
"""

import math

import numpy as np
import pytest

from gravcat_coding import (
    AxisSpec,
    GravcatParams,
    SplitMix64,
    chi_closed_form,
    eigh,
    figure_grid,
    optimize_strength,
    verification_report,
)
from gravcat_coding.cli import main as cli_main
from gravcat_coding.closed_form import _thermal_terms, closed_form_engine, x_state
from gravcat_coding.coding import engine_report
from gravcat_coding.linalg import check_density
from gravcat_coding.verify import draw_samples
from conftest import bell_state, boltzmann_weights, maximally_mixed, state_report


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def seeded_verification():
    return verification_report(samples=1000, seed=42)


def test_criterion_1_state_oracle_equivalence(seeded_verification):
    check = seeded_verification["checks"]["thermal_state_closed_vs_numeric"]
    _report(
        "criterion 1 (closed-form thermal state vs matrix-exponential oracle)",
        check["max_deviation"] < 1e-10,
        f"max element-wise deviation {check['max_deviation']:.3e} over 1000 seeded draws, "
        "threshold 1e-10",
    )


def test_criterion_2_capacity_oracle_equivalence(seeded_verification):
    plain = seeded_verification["checks"]["capacity_closed_vs_numeric"]
    wm = seeded_verification["checks"]["wm_capacity_closed_vs_numeric"]
    ok = plain["max_deviation"] < 1e-9 and wm["max_deviation"] < 1e-9
    _report(
        "criterion 2 (closed-form capacities vs numeric pipeline)",
        ok,
        f"plain {plain['max_deviation']:.3e}, with-measurement {wm['max_deviation']:.3e}, "
        "threshold 1e-9",
    )


def test_criterion_3_exact_limits():
    chi_mixed = state_report(maximally_mixed(4)).chi
    chi_bell = state_report(bell_state()).chi

    no_coupling_ok = True
    worst_gamma0 = -math.inf
    for omega in np.linspace(0.05, 5.0, 10):
        for temperature in np.linspace(0.05, 10.0, 10):
            chi = chi_closed_form(float(omega), 0.0, float(temperature))
            worst_gamma0 = max(worst_gamma0, chi)
            no_coupling_ok &= chi <= 1.0 + 1e-12

    strong = 1.0 - 1e-9  # the strength that probes the p -> 1 limit
    zero_strength_dev = 0.0
    boundary_dev = 0.0
    for omega, gamma, temperature, _ in draw_samples(SplitMix64(2024), 1000).tolist():
        params = GravcatParams(omega, gamma, temperature)
        zero_strength_dev = max(
            zero_strength_dev,
            abs(engine_report(closed_form_engine, params, 0.0).chi
                - engine_report(closed_form_engine, params).chi),
        )
        boundary = chi_closed_form(omega, gamma, temperature, 1.0 - strong)
        boundary_dev = max(boundary_dev, abs(boundary - 1.0))

    ok = (
        abs(chi_mixed) < 1e-10
        and abs(chi_bell - 2.0) < 1e-10
        and no_coupling_ok
        and zero_strength_dev < 1e-12
        and boundary_dev < 1e-5
    )
    _report(
        "criterion 3 (exact limits)",
        ok,
        f"chi(I/4)={chi_mixed:.2e}, chi(Bell)-2={chi_bell - 2.0:.2e}, "
        f"max chi at gamma=0 is {worst_gamma0:.12f}, p=0 deviation {zero_strength_dev:.2e}, "
        f"p->1 deviation {boundary_dev:.2e}",
    )


def test_criterion_4_spectrum_law():
    worst = 0.0
    for omega, gamma, temperature, _ in draw_samples(SplitMix64(7), 300).tolist():
        rho = check_density(x_state(_thermal_terms(omega, gamma, temperature)))
        expected = boltzmann_weights(omega, gamma, temperature)
        worst = max(worst, float(np.abs(eigh(rho)[0] - expected).max()))
    _report(
        "criterion 4 (thermal spectrum equals Boltzmann weights)",
        worst < 1e-10,
        f"max eigenvalue deviation {worst:.3e} over 300 seeded draws, threshold 1e-10",
    )


def test_criterion_5a_default_grid_brightness():
    grid = figure_grid("2a")
    peak = float(grid.values.max())
    _report(
        "criterion 5a (default low-temperature grid reaches chi > 1.99)",
        peak > 1.99,
        f"grid max {peak:.6f}; the capacity ceiling on gamma <= 3 at T = 0.01 is ~1.9584 "
        "(chi > 1.99 needs gamma of order 30), so this threshold is not reachable on the "
        "default ranges",
    )


def test_criterion_5b_ridge_shape_along_omega():
    omegas = AxisSpec.default("omega").values()
    row = np.array([chi_closed_form(float(w), 0.5, 0.01) for w in omegas])
    peak = int(row.argmax())
    diffs = np.diff(row)
    ok = (
        0 < peak < len(row) - 1
        and bool((diffs[:peak] > 0).all())
        and bool((diffs[peak:] < 0).all())
        and row[peak] > row[0] + 0.1
        and row[peak] > row[-1] + 0.1
    )
    _report(
        "criterion 5b (chi rises then falls along omega at gamma = 0.5)",
        ok,
        f"peak chi {row[peak]:.4f} at omega={omegas[peak]:.4f}, "
        f"endpoints {row[0]:.4f} / {row[-1]:.4f}, unimodal={ok}",
    )


def test_criterion_6_capacity_decays_with_temperature():
    cold = chi_closed_form(1.0, 1.0, 0.1)
    hot = chi_closed_form(1.0, 1.0, 2.0)
    _report(
        "criterion 6 (thermal decay at omega = gamma = 1)",
        hot < cold,
        f"chi(T=2)={hot:.6f} < chi(T=0.1)={cold:.6f}",
    )


def test_criterion_7_measurement_protection():
    p_star, chi_star = optimize_strength(GravcatParams(1.0, 1.0, 1.0))
    chi_zero = chi_closed_form(1.0, 1.0, 1.0, 1.0 - 0.0)
    gain = chi_star - chi_zero

    strengths = AxisSpec.default("p").values()
    widths = {}
    for scale in (1.0, 3.0):
        chis = np.array([chi_closed_form(scale, scale, 1.0, 1.0 - float(p)) for p in strengths])
        widths[scale] = int((chis >= 1.0).sum())
    ok = gain > 0.0 and widths[3.0] > widths[1.0]
    _report(
        "criterion 7 (weak measurement protects the advantage)",
        ok,
        f"gain {gain:.6f} at omega=gamma=1, T=1 (p*={p_star!r}); chi>=1 window covers "
        f"{widths[3.0]}/{len(strengths)} grid points at omega=gamma=3 vs "
        f"{widths[1.0]} at omega=gamma=1",
    )


def test_criterion_8_deep_cold_hygiene():
    ok = True
    details = []
    for omega, gamma in ((1.0, 1.0), (5.0, 5.0), (0.3, 2.0)):
        theta = math.hypot(omega, gamma)
        params = GravcatParams(omega, gamma, theta / 700.0)
        report = engine_report(closed_form_engine, params)
        rho = check_density(x_state(_thermal_terms(omega, gamma, params.temperature)))
        trace_err = abs(float(np.trace(rho)) - 1.0)
        ok &= math.isfinite(report.chi) and 0.0 <= report.chi <= 2.0 and trace_err < 1e-10
        details.append(f"chi={report.chi:.4f}, trace err {trace_err:.1e}")
    _report(
        "criterion 8 (overflow-safe deep-cold evaluation at T = theta/700)",
        ok,
        "; ".join(details),
    )


def test_criterion_9_byte_determinism(tmp_path):
    verify_a = tmp_path / "verify_a.json"
    verify_b = tmp_path / "verify_b.json"
    for target in (verify_a, verify_b):
        code = cli_main(
            ["verify", "--samples", "1000", "--seed", "42", "--output", str(target)]
        )
        assert code == 0
    figure_a = tmp_path / "fig2a_a.csv"
    figure_b = tmp_path / "fig2a_b.csv"
    for target in (figure_a, figure_b):
        assert cli_main(["figure", "2a", "--output", str(target)]) == 0
    ok = (
        verify_a.read_bytes() == verify_b.read_bytes()
        and figure_a.read_bytes() == figure_b.read_bytes()
    )
    _report(
        "criterion 9 (byte-identical verification reports and figure grids)",
        ok,
        f"verify reports {verify_a.stat().st_size} bytes each, "
        f"figure grids {figure_a.stat().st_size} bytes each",
    )
