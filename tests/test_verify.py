"""The batched verification report against the per-sample route it replaced."""

import json
import math

import numpy as np
import pytest

import gravcat_coding.verify as verify_module
from gravcat_coding import (
    CHECKS,
    InvalidParameterError,
    InvalidStateError,
    OutOfRangeError,
    SplitMix64,
    chi_closed_form,
    draw_samples,
    verification_report,
)
from gravcat_coding.linalg import _require_state
from gravcat_coding.numeric import chi_numeric
from conftest import assert_same_bits, per_sample_route

CAPACITY_CHECKS = ("capacity_closed_vs_numeric", "wm_capacity_closed_vs_numeric")


@pytest.mark.parametrize("seed", [42, 20240117])
def test_verify_matches_per_sample_route(seed):
    report = verification_report(300, seed)
    reference = per_sample_route(300, seed)
    for name, (worst, point) in reference.items():
        entry = report["checks"][name]
        assert entry["max_deviation"] == worst, name  # bit for bit
        assert entry["worst_sample"] == point, name
        assert entry["worst_sample"] is not None


def test_report_bytes_do_not_depend_on_chunking(monkeypatch):
    texts = []
    for chunk in (1, 7, verify_module.CHUNK_SIZE):
        monkeypatch.setattr(verify_module, "CHUNK_SIZE", chunk)
        texts.append(json.dumps(verification_report(60, 13), indent=2))
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("chunk, chunks", [(verify_module.CHUNK_SIZE, 1), (20, 3)])
def test_only_the_gibbs_states_read_eigenvectors(
    solve_counts, symmetry_scans, monkeypatch, chunk, chunks
):
    # per chunk one eigh call, the Gibbs states; every other matrix, the
    # closed-form state's positivity check and the four spectra per sample of
    # the two capacities, is solved for its eigenvalues alone, the capacities'
    # states in one call and their 2x2 reduced states in another
    monkeypatch.setattr(verify_module, "CHUNK_SIZE", chunk)
    assert verification_report(50, 1)["all_passed"]
    assert solve_counts == {"eigh": [chunks, 50], "eigvalsh": [3 * chunks, 5 * 50]}
    # no symmetry scan: every stack, the closed-form states of the density
    # check and the Hamiltonians among them, is symmetric by construction
    assert symmetry_scans == [0]


@pytest.mark.parametrize("seed", [0, 42, 123456789])
def test_array_draw_rows_equal_single_draws(seed):
    batched, single, uniforms = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
    for row in draw_samples(batched, 9).tolist():
        assert row == draw_samples(single, 1)[0].tolist()
        u1, u2, u3, u4 = (uniforms.next_float() for _ in range(4))  # the documented order
        assert row == [5.0 * (1.0 - u1), 5.0 * u2, 0.05 + (10.0 - 0.05) * u3, 0.99 * u4]
    assert batched.state == single.state == uniforms.state


@pytest.mark.parametrize(
    "column, value, error",
    [(0, -math.ulp(0.0), InvalidParameterError), (2, 1e-7, InvalidParameterError),
     (1, np.nan, InvalidParameterError), (3, 1.5, OutOfRangeError)],
)
def test_every_draw_of_a_chunk_is_domain_checked(monkeypatch, column, value, error):
    def draw_with_a_bad_row(rng, n):
        rows = draw_samples(rng, n)
        rows[n // 2, column] = value
        return rows

    monkeypatch.setattr(verify_module, "draw_samples", draw_with_a_bad_row)
    with pytest.raises(error, match="^verify sample 2: ") as info:
        verification_report(5, 3)
    assert type(info.value) is error and info.value.index == (2,)


def test_worst_sample_reproduces_its_deviation():
    report = verification_report(50, 8)
    for check, measured in zip(CAPACITY_CHECKS, (False, True)):
        entry = report["checks"][check]
        sample = entry["worst_sample"]
        draws = draw_samples(SplitMix64(8), sample["index"] + 1)
        omega, gamma, temperature, strength = draws[-1].tolist()
        assert (omega, gamma, temperature, strength) == (
            sample["omega"], sample["gamma"], sample["temp"], sample["p"]
        )
        q = 1.0 - strength if measured else 1.0
        closed = chi_closed_form(omega, gamma, temperature, q)
        assert abs(closed - chi_numeric(omega, gamma, temperature, q)) == entry["max_deviation"]


def test_capacity_deviations_are_the_engines_own_at_every_draw(monkeypatch):
    found = []
    original = verify_module._deviations

    def recording(*columns):
        deviations = original(*columns)
        found.append([deviations[name][0] for name in CAPACITY_CHECKS])
        return deviations

    monkeypatch.setattr(verify_module, "_deviations", recording)
    monkeypatch.setattr(verify_module, "CHUNK_SIZE", 16)
    verification_report(40, 21)
    assert len(found) == 3
    plain, measured = np.concatenate(found, axis=-1)
    for i, (omega, gamma, temperature, strength) in enumerate(draw_samples(SplitMix64(21), 40)):
        for got, q in ((plain[i], 1.0), (measured[i], 1.0 - strength)):
            closed = chi_closed_form(omega, gamma, temperature, q)
            assert_same_bits(got, abs(closed - chi_numeric(omega, gamma, temperature, q)))


def test_kernel_error_names_the_sample(monkeypatch):
    chunks = []

    def corrupt_first_state_of_second_chunk(stack, **kwargs):
        chunks.append(len(stack))
        if len(chunks) == 2:
            stack = stack.copy()
            stack[0, 0, 0] += 0.1  # trace 1.1
        return _require_state(stack, **kwargs)

    monkeypatch.setattr(verify_module, "_require_state", corrupt_first_state_of_second_chunk)
    monkeypatch.setattr(verify_module, "CHUNK_SIZE", 2)
    with pytest.raises(InvalidStateError, match="verify sample 2: trace must be 1") as info:
        verification_report(3, 0)
    assert info.value.index == (2,)
    assert chunks == [2, 1]


def _inject_nan(monkeypatch, target: int, check: str) -> None:
    """Make the deviation of draw ``target`` NaN in the first quantity of ``check``."""
    original = verify_module._deviations
    seen = [0]

    def deviations(omega, *rest):
        found = original(omega, *rest)
        start, seen[0] = seen[0], seen[0] + len(omega)
        if start <= target < seen[0]:
            first = found[check][0].copy()
            first[target - start] = np.nan
            found[check] = (first, *found[check][1:])
        return found

    monkeypatch.setattr(verify_module, "_deviations", deviations)


def test_nan_deviation_fails_its_check_and_names_its_sample(monkeypatch):
    texts = []
    for chunk in (1, 7, 4096):
        monkeypatch.setattr(verify_module, "CHUNK_SIZE", chunk)
        _inject_nan(monkeypatch, 11, "wm_state_closed_vs_kraus")
        report = verification_report(30, 5)
        monkeypatch.undo()
        entry = report["checks"]["wm_state_closed_vs_kraus"]
        assert entry["passed"] is False and entry["max_deviation"] is None
        assert entry["worst_sample"]["index"] == 11
        assert report["all_passed"] is False
        others = [v for k, v in report["checks"].items() if k != "wm_state_closed_vs_kraus"]
        assert all(v["passed"] and v["max_deviation"] is not None for v in others)
        texts.append(json.dumps(report, indent=2, allow_nan=False))
    assert texts[0] == texts[1] == texts[2]
    clean = verification_report(30, 5)["checks"]["wm_state_closed_vs_kraus"]
    assert clean["passed"] and clean["worst_sample"]["index"] != 11


def test_all_nan_deviations_name_the_first_draw(monkeypatch):
    monkeypatch.setattr(
        verify_module,
        "_deviations",
        lambda omega, *rest: {name: (np.full(len(omega), np.nan),) for name, _ in CHECKS},
    )
    report = verification_report(9, 1)
    for entry in report["checks"].values():
        assert entry["passed"] is False and entry["max_deviation"] is None
        assert entry["worst_sample"]["index"] == 0
