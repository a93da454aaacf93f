"""The command line.  Its share of the suite-wide contracts (p = 1, a domain error,
byte-identical output) is one parametrized test each."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gravcat_coding.sweep as sweep_module
import gravcat_coding.verify as verify_module
from gravcat_coding import AxisSpec, GravcatParams, SplitMix64, chi_closed_form, evaluate_sweep
from gravcat_coding.coding import ENGINES, engine_report
from gravcat_coding.cli import build_parser, main
from conftest import fresh_python


def load_script(name: str):
    """The module of ``scripts/<name>.py``."""
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_hot_limit(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--omega", "1", "--gamma", "0", "--temp", "1e9")
    payload = json.loads(out)
    assert code == 0
    assert payload["schema_version"] == 1
    assert abs(payload["chi"]) < 1e-7
    assert payload["advantage"] == "none"
    assert "strength" not in payload


def test_capacity_bright_region(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--omega", "1", "--gamma", "3", "--temp", "0.01")
    payload = json.loads(out)
    assert code == 0
    assert payload["chi"] >= 1.9
    assert payload["advantage"] in ("valid", "optimal")


def test_capacity_zero_strength_matches_plain(capsys):
    _, plain, _ = run_cli(capsys, "capacity", "--omega", "1", "--gamma", "1", "--temp", "1")
    _, with_p, _ = run_cli(
        capsys, "capacity", "--omega", "1", "--gamma", "1", "--temp", "1", "--p", "0"
    )
    chi_plain = json.loads(plain)["chi"]
    with_p = json.loads(with_p)
    assert abs(with_p["chi"] - chi_plain) < 1e-12
    assert with_p["strength"] == 0.0
    assert abs(with_p["success_probability"] - 1.0) < 1e-12


def test_capacity_engines_agree(capsys):
    base = ("capacity", "--omega", "0.8", "--gamma", "2.0", "--temp", "0.4", "--p", "0.35")
    _, closed, _ = run_cli(capsys, *base)
    _, numeric, _ = run_cli(capsys, *base, "--engine", "numeric")
    closed, numeric = json.loads(closed), json.loads(numeric)
    assert abs(closed["chi"] - numeric["chi"]) < 1e-9
    assert abs(closed["success_probability"] - numeric["success_probability"]) < 1e-12


def test_capacity_numeric_bits_equal_sweep_cells(capsys):
    # the command, engine_report and a sweep cell read one engine table, so a
    # point gets the same bits from each, with or without --p; the parser is
    # built once, as building it costs more than the point
    parser = build_parser()
    for u1, u2, u3, u4 in SplitMix64(2026).next_floats(4 * 500).reshape(500, 4).tolist():
        w, g, t, p = 3.0 * (1.0 - u1), 3.0 * u2, 0.01 + 1.99 * u3, 0.99 * u4
        for extra, fixed in (((), {"T": t}), (("--p", repr(p)), {"T": t, "p": p})):
            argv = ["--omega", repr(w), "--gamma", repr(g), "--temp", repr(t), *extra]
            args = parser.parse_args(["capacity", "--engine", "numeric", *argv])
            assert args.handler(args) == 0
            chi = json.loads(capsys.readouterr().out)["chi"]
            grid = evaluate_sweep(
                AxisSpec("omega", w, w + 1.0, 2), AxisSpec("gamma", g, g + 1.0, 2), fixed,
                engine="numeric",
            )
            cell = engine_report(ENGINES["numeric"], GravcatParams(w, g, t), fixed.get("p")).chi
            assert chi == cell == grid.values[0, 0], (w, g, t, extra)


@pytest.mark.parametrize("argv", [
    ("capacity", "--omega", "1", "--gamma", "0", "--temp", "0"),
    ("optimize", "--omega", "1", "--gamma", "1", "--temp", "0"),
], ids=["capacity", "optimize"])
def test_invalid_temperature_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "InvalidParameterError"
    assert "temperature must be positive" in error["message"]


@pytest.mark.parametrize("argv", [
    ("capacity", "--omega", "0", "--gamma", "1", "--temp", "1"),
    ("figure", "2a", "--y", "omega:0:3:4"),
    ("sweep", "--x", "omega:0:3:4", "--y", "T:0.1:2:3", "--gamma", "1"),
    ("optimize", "--omega", "0", "--gamma", "1", "--temp", "1"),
])
def test_zero_omega_needs_no_opt_in(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out and err == ""


def test_zero_omega_opt_in_is_gone(capsys):
    # the flag is a usage error, and the library keyword no parameter at all
    with pytest.raises(SystemExit) as info:
        main(["capacity", "--omega", "0", "--gamma", "1", "--temp", "1", "--allow-zero-omega"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--allow-zero-omega" in captured.err
    with pytest.raises(TypeError):
        GravcatParams(0.0, 1.0, 1.0, allow_zero_omega=True)


VANISHING = ("capacity", "--omega", "1", "--gamma", "0", "--temp", "1e-3", "--p", "1")
KEPT_PROJECTOR = {"chi": 1.0, "success_probability": 0.0, "state_spectrum": [1.0, 0.0, 0.0, 0.0]}
# command -> (argv reaching p = 1, the JSON fields it prints or the last CSV row)
PROJECTIVE_COMMANDS = {
    "capacity": (
        ("capacity", "--omega", "1", "--gamma", "1", "--temp", "1", "--p", "1"),
        {"chi": 1.0, "strength": 1.0},
    ),
    # the kept |00> weight underflows to 0 here: the kept state is still
    # |00><00|, so both engines report one bit with success probability 0.0
    "vanishing-closed_form": ((*VANISHING, "--engine", "closed_form"), KEPT_PROJECTOR),
    "vanishing-numeric": ((*VANISHING, "--engine", "numeric"), KEPT_PROJECTOR),
    "sweep": (
        ("sweep", "--x", "T:0.1:1:3", "--y", "p:0:1:3", "--omega", "1", "--gamma", "1"),
        "1.0,1.0,1.0,1.0",
    ),
}


@pytest.mark.parametrize("command", list(PROJECTIVE_COMMANDS))
def test_projective_endpoint_is_one_bit(capsys, command):
    argv, want = PROJECTIVE_COMMANDS[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if isinstance(want, str):
        assert out.splitlines()[-1] == want
        return
    payload = json.loads(out)
    assert {key: payload[key] for key in want} == want
    # the closed form's payload (the last --engine wins) differs only in the engine
    _, closed, _ = run_cli(capsys, *argv, "--engine", "closed_form")
    assert {**json.loads(closed), "engine": payload["engine"]} == payload


def test_capacity_missing_flag(capsys):
    code, _, err = run_cli(capsys, "capacity", "--gamma", "0", "--temp", "1")
    assert code == 2
    assert "--omega is required" in json.loads(err)["message"]


def test_sweep_writes_csv_file(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--x", "gamma:0:1:4", "--y", "omega:0.5:1.5:3",
        "--temp", "0.7", "--output", str(target),
    )
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "# gravcat-coding v0.1.0 engine=closed_form fixed=T=0.7"
    assert lines[1].startswith("y\\x,")
    assert len(lines) == 5


@pytest.mark.parametrize("argv", [
    ("sweep", "--x", "gamma:0:2:5", "--y", "T:0.1:1:4", "--omega", "1.2", "--p", "0.4"),
    ("verify", "--samples", "50", "--seed", "11"),
], ids=["sweep", "verify"])
def test_output_is_byte_deterministic(tmp_path, capsys, argv):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for target in (first, second):
        assert run_cli(capsys, *argv, "--output", str(target))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--x", "gamma:0:1:3", "--y", "omega:0.5:1.5:2",
        "--temp", "0.7", "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["y_axis"]["count"] == 2
    assert len(payload["values"]) == 2 and len(payload["values"][0]) == 3


def test_sweep_axis_conflicts(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep", "--x", "gamma:0:1:3", "--y", "omega:0.5:1.5:2",
        "--temp", "0.7", "--gamma", "1.0",
    )
    assert code == 2
    assert "conflict" in json.loads(err)["message"]


def test_sweep_missing_fixed_value(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--x", "gamma:0:1:3", "--y", "omega:0.5:1.5:2"
    )
    assert code == 2
    assert "missing fixed value" in json.loads(err)["message"]


def test_sweep_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--y", "omega:0.5:1.5:2", "--temp", "1"])
    assert exc.value.code == 2
    # there is no --jobs flag: every grid is one array call in one process
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--x", "gamma:0:1:3", "--y", "omega:0.5:1.5:2", "--temp", "1",
              "--jobs", "2"])
    assert exc.value.code == 2


def test_figure_writes_csv_and_sidecar(tmp_path, capsys):
    target = tmp_path / "fig5a.csv"
    code, _, _ = run_cli(
        capsys,
        "figure", "5a", "--x", "T:0.1:1:4", "--y", "p:0:0.9:3", "--output", str(target),
    )
    assert code == 0
    header = target.read_text().splitlines()[0]
    assert header == "# gravcat-coding v0.1.0 engine=closed_form fixed=omega=1.0,gamma=1.0"
    sidecar = json.loads((tmp_path / "fig5a.csv.json").read_text())
    assert sidecar["figure"] == "5a"
    assert sidecar["fixed"] == {"omega": 1.0, "gamma": 1.0}
    assert sidecar["x_axis"] == {"name": "T", "start": 0.1, "stop": 1.0, "count": 4}


def test_figure_stdout_skips_sidecar(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "figure", "6a", "--x", "gamma:0:1:3", "--y", "p:0:0.5:2"
    )
    assert code == 0
    assert out.startswith("# gravcat-coding")
    assert list(tmp_path.iterdir()) == []


def test_figure_unknown_id_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "9q"])
    assert exc.value.code == 2


def test_optimize_reference_point(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--omega", "1", "--gamma", "1", "--temp", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["gain"] > 0.0
    assert 0.0 <= payload["p_star"] < 1.0
    assert abs(payload["chi_at_zero"] - chi_closed_form(1.0, 1.0, 1.0)) < 1e-12
    assert payload["chi_star"] == payload["chi_at_zero"] + payload["gain"]


def test_optimize_chi_at_zero_is_the_unmeasured_report():
    # the command reads chi_closed_form at q = 1; the p = 0 report of the
    # closed-form engine evaluates the same call
    for w, g, t in SplitMix64(31).next_floats(3 * 300).reshape(300, 3).tolist():
        params = GravcatParams(3.0 * w, 3.0 * g, 0.01 + 1.99 * t)
        report = engine_report(ENGINES["closed_form"], params, 0.0)
        chi = chi_closed_form(params.omega, params.gamma, params.temperature)
        assert float(chi) == report.chi, params


def test_optimize_plateau_case(capsys):
    # already essentially optimal without measurement
    code, out, _ = run_cli(capsys, "optimize", "--omega", "1", "--gamma", "3", "--temp", "0.01")
    payload = json.loads(out)
    assert code == 0
    assert payload["gain"] >= 0.0
    assert payload["gain"] < 0.1


def test_verify_small_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--samples", "25", "--seed", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["all_passed"] is True
    assert payload["samples"] == 25 and payload["seed"] == 3
    assert set(payload["checks"]) == {
        "thermal_state_closed_vs_numeric",
        "capacity_closed_vs_numeric",
        "wm_state_closed_vs_kraus",
        "wm_capacity_closed_vs_numeric",
        "twirl_vs_marginal_identity",
    }
    for entry in payload["checks"].values():
        assert entry["max_deviation"] < entry["threshold"]
        assert entry["passed"] is True


def test_verify_single_sample_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--samples", "1", "--seed", "9")
    payload = json.loads(out)
    assert code == 0
    assert payload["samples"] == 1
    assert len(payload["checks"]) == 5


def test_verify_rejects_bad_samples(capsys):
    code, _, err = run_cli(capsys, "verify", "--samples", "0")
    assert code == 2
    assert "samples" in json.loads(err)["message"]


def test_verify_failure_exits_one_but_reports(capsys, monkeypatch):
    impossible = tuple((name, -1.0) for name, _ in verify_module.CHECKS)
    monkeypatch.setattr(verify_module, "CHECKS", impossible)
    code, out, _ = run_cli(capsys, "verify", "--samples", "2", "--seed", "5")
    payload = json.loads(out)
    assert code == 1
    assert payload["all_passed"] is False
    assert all(not entry["passed"] for entry in payload["checks"].values())


@pytest.mark.parametrize("target", ["directory", "missing/parent.json"])
def test_unwritable_output_exits_two(tmp_path, capsys, target):
    path = tmp_path / target
    if target == "directory":
        path.mkdir()
    code, out, err = run_cli(
        capsys, "capacity", "--omega", "1", "--gamma", "1", "--temp", "1", "--output", str(path)
    )
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] in ("IsADirectoryError", "FileNotFoundError")
    assert str(path) in error["message"]


class _ArrayMemoryError(MemoryError):
    """Stands in for the private MemoryError subclass numpy raises."""


@pytest.mark.parametrize("error", [MemoryError, _ArrayMemoryError])
def test_grid_too_large_to_allocate_exits_two(capsys, monkeypatch, error):
    # a real grid of 1e16 cells would first allocate gigabytes of axis values
    def unallocatable(*args, **kwargs):
        raise error("Unable to allocate 71.1 PiB for an array with shape (100000000, 100000000)")

    monkeypatch.setattr(sweep_module, "evaluate_sweep", unallocatable)
    code, out, err = run_cli(
        capsys, "sweep", "--x", "gamma:0:3:100000000", "--y", "omega:0.01:3:100000000",
        "--temp", "1",
    )
    assert code == 2 and out == ""
    error_object = json.loads(err)
    assert error_object["error"] == "MemoryError"
    assert "71.1 PiB" in error_object["message"]


def test_cli_import_loads_no_process_pool():
    # the import loads no package module but the CLI's own and `version`, and
    # no numpy; `--version` then builds the parser and still loads no numpy
    probe = (
        "import sys, gravcat_coding.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('gravcat_coding.')\n"
        "             or m in ('numpy', 'multiprocessing', 'concurrent.futures')))\n"
        "try:\n"
        "    gravcat_coding.cli.main(['--version'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print('numpy' in sys.modules)\n"
    )
    imported, _, numpy_after_version = fresh_python(probe).splitlines()
    assert imported == "['gravcat_coding.cli', 'gravcat_coding.version']"
    assert numpy_after_version == "False"


# the package modules each command loads, beyond `cli`, `presets` and `version`:
# `capacity` runs no sweep, `verify` neither sweep nor the report layer
ENGINE_MODULES = ["closed_form", "coding", "linalg", "numeric", "thermal"]
COMMAND_MODULES = {
    "--version": ([], ["--version"]),
    "--help": ([], ["--help"]),
    "capacity": (ENGINE_MODULES, ["capacity", "--omega", "1", "--gamma", "1", "--temp", "1"]),
    "capacity-numeric": (
        ENGINE_MODULES,
        ["capacity", "--omega", "1", "--gamma", "1", "--temp", "1", "--engine", "numeric"],
    ),
    "sweep": (
        [*ENGINE_MODULES, "float_text", "sweep"],
        ["sweep", "--x", "omega:0.5:1:3", "--y", "T:0.1:2:3", "--gamma", "1"],
    ),
    "figure": (
        [*ENGINE_MODULES, "float_text", "sweep"],
        ["figure", "2a", "--x", "gamma:0:3:5", "--y", "omega:0.01:3:4"],
    ),
    "optimize": (
        [*ENGINE_MODULES, "weak_measurement"],
        ["optimize", "--omega", "1", "--gamma", "1", "--temp", "1"],
    ),
    "verify": (
        ["closed_form", "linalg", "numeric", "rng", "thermal", "verify"],
        ["verify", "--samples", "2"],
    ),
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_imports_only_its_own_modules(command):
    modules, argv = COMMAND_MODULES[command]
    probe = (
        "import contextlib, io, sys, gravcat_coding.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        gravcat_coding.cli.main({argv!r})\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(sorted(m.partition('.')[2] for m in sys.modules\n"
        "             if m.startswith('gravcat_coding.')))\n"
        "print('numpy' in sys.modules)\n"
    )
    loaded, numpy_loaded = fresh_python(probe).splitlines()
    assert loaded == repr(sorted(["cli", "presets", "version", *modules]))
    assert numpy_loaded == repr(bool(modules))


@pytest.mark.parametrize("command", ["capacity", "optimize"])
def test_huge_inputs_leave_stderr_empty(command):
    # exponents past the double range are exact zero weights, not warnings
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "gravcat_coding", command,
         "--omega", "1e308", "--gamma", "1e308", "--temp", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["schema_version"] == 1


# numbers a command prints at two CPU dispatch levels of one numpy build agree
# within this bound (README, "File formats"); measured at most 6.7e-16 on the
# closed-form figures, 9.8e-15 on numeric ones and 5.1e-15 on verify's
# max_deviation
DISPATCH_BOUND = 1e-13
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"}
HASWELL_BLAS = {"OPENBLAS_CORETYPE": "Haswell"}


def numpy_cpu_has(*features: str) -> bool:
    """Whether numpy finds every named CPU feature on this machine."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return all(__cpu_features__.get(name, False) for name in features)


def cli_in_subprocess(argv, dispatch: dict[str, str]) -> tuple[int, bytes]:
    """(exit code, stdout) of a fresh CLI process with only ``dispatch`` set of the
    variables that pick numpy's loops and OpenBLAS's kernels."""
    env = {k: v for k, v in os.environ.items() if k not in {*NO_AVX512, *HASWELL_BLAS}}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "gravcat_coding", *argv], env={**env, **dispatch},
        stdout=subprocess.PIPE, timeout=120, check=False,
    )
    return proc.returncode, proc.stdout


def without_worst_samples(report: bytes) -> bytes:
    payload = json.loads(report)
    for entry in payload["checks"].values():
        del entry["worst_sample"]
    return json.dumps(payload).encode()


@pytest.mark.parametrize(
    "argv, dispatch",
    [
        (("figure", "2a", "--x", "gamma:0:3:40", "--y", "omega:0.01:3:40"), NO_AVX512),
        (("capacity", "--omega", "0.8", "--gamma", "2", "--temp", "0.4", "--p", "0.35",
          "--engine", "numeric"), NO_AVX512),
        (("verify",), NO_AVX512),
        (("figure", "5a", "--engine", "numeric", "--x", "T:0.01:2:20", "--y", "p:0:0.99:20"),
         HASWELL_BLAS),
    ],
    ids=["figure-2a", "capacity-numeric", "verify", "figure-5a-numeric-haswell"],
)
def test_numbers_agree_across_cpu_dispatch_levels(argv, dispatch):
    # where the machine lacks the disabled features, numpy ignores the
    # variable and the outputs are equal
    if dispatch is HASWELL_BLAS and not numpy_cpu_has("AVX2", "FMA3"):
        pytest.skip("OpenBLAS's Haswell kernels need AVX2 and FMA3")
    (code, native), (other_code, other) = (cli_in_subprocess(argv, d) for d in ({}, dispatch))
    assert code == other_code and code in (0, 1)
    if argv[0] == "verify":
        # a check's worst sample may be another draw whose deviation ties within the bound
        native, other = without_worst_samples(native), without_worst_samples(other)
    numbers = load_script("diff_cli_bytes")
    assert numbers.NUMBER.sub(b"#", native) == numbers.NUMBER.sub(b"#", other)
    assert numbers.max_number_difference(native, other) <= DISPATCH_BOUND


def test_reproduce_figures_writes_the_figure_commands_bytes(tmp_path, capsys, monkeypatch):
    module = load_script("reproduce_figures")
    assert module.main(["--outdir", str(tmp_path / "script"), "--ids", "2a", "5b"]) == 0
    written = sorted(p.name for p in (tmp_path / "script").iterdir())
    assert written == ["figure_2a.csv", "figure_2a.csv.json", "figure_5b.csv", "figure_5b.csv.json"]
    for fid in ("2a", "5b"):
        target = tmp_path / f"cli_{fid}.csv"
        assert run_cli(capsys, "figure", fid, "--output", str(target))[0] == 0
        for suffix in ("", ".json"):
            mine = (tmp_path / "script" / f"figure_{fid}.csv{suffix}").read_bytes()
            assert mine == Path(f"{target}{suffix}").read_bytes()
    with pytest.raises(SystemExit):
        module.main(["--outdir", str(tmp_path / "script"), "--ids", "9z"])
    monkeypatch.setattr(module.cli, "main", lambda argv: 2)
    assert module.main(["--outdir", str(tmp_path / "script"), "--ids", "2a"]) == 1


def test_diff_cli_bytes_reports_only_real_differences(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1]
    module = load_script("diff_cli_bytes")
    commands = (
        ("--version",),
        ("capacity", "--omega", "1", "--gamma", "1", "--temp", "0"),
        ("figure", "2a", "--x", "gamma:0:3:5", "--y", "omega:0.01:3:4", "--output", "f.csv"),
    )
    assert module.main([str(root), str(root)], commands=commands) == 0
    assert capsys.readouterr().out == "0 of 3 commands differ\n"
    # a tree whose version string differs changes --version's stdout only
    shutil.copytree(root / "src", tmp_path / "src")
    version = tmp_path / "src" / "gravcat_coding" / "version.py"
    version.write_text(version.read_text(encoding="utf-8") + '__version__ = "0.0.0"\n')
    assert module.main([str(root), str(tmp_path)], commands=commands[:2]) == 1
    # 0.1.0 against 0.0.0 pairs up as the numbers (0.1, .0) and (0.0, .0)
    assert capsys.readouterr().out == (
        "DIFFERS (stdout max |number difference| 0.1): --version\n1 of 2 commands differ\n"
    )
    # of stderr only the error class of an exit-2 command counts: a changed
    # message is no difference, a changed class is one
    thermal = tmp_path / "src" / "gravcat_coding" / "thermal.py"
    source = thermal.read_text(encoding="utf-8")
    reworded = source.replace('f"temperature must be positive', 'f"T must be positive')
    # the temperature rule of `check_domain`'s table, with another error class
    reclassed = source.replace(
        "(MIN_TEMPERATURE, _MAX, InvalidParameterError,",
        "(MIN_TEMPERATURE, _MAX, OutOfRangeError,",
    )
    assert source != reworded and source != reclassed
    thermal.write_text(reworded, encoding="utf-8")
    assert module.main([str(root), str(tmp_path)], commands=commands[1:2]) == 0
    assert capsys.readouterr().out == "0 of 1 commands differ\n"
    thermal.write_text(reclassed, encoding="utf-8")
    assert module.main([str(root), str(tmp_path)], commands=commands[1:2]) == 1
    assert capsys.readouterr().out == (
        "DIFFERS (error InvalidParameterError != OutOfRangeError): "
        "capacity --omega 1 --gamma 1 --temp 0\n1 of 1 commands differ\n"
    )
    # the parser's text is compared whole: its help on stdout, and the
    # stderr of a usage error, which carries no JSON error object
    cli = tmp_path / "src" / "gravcat_coding" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    renamed = source.replace('"--engine", choices=', '"--engine", metavar="ENGINE", choices=')
    assert renamed != source
    cli.write_text(renamed, encoding="utf-8")
    parser_text = (("capacity", "--help"), ("capacity", "--engine", "bogus"), ("verify", "--help"))
    assert module.main([str(root), str(tmp_path)], commands=parser_text) == 1
    assert capsys.readouterr().out == (
        "DIFFERS (stdout max |number difference| 0): capacity --help\n"
        "DIFFERS (stderr): capacity --engine bogus\n2 of 3 commands differ\n"
    )


def test_diff_cli_bytes_measures_number_differences():
    module = load_script("diff_cli_bytes")
    base = b'{"chi": 1.25, "spectrum": [0.5, -2e-3, 7]}\n'
    head = b'{"chi": 1.2500000000000002, "spectrum": [0.5, -1e-3, 7]}\n'
    assert module.max_number_difference(base, head) == 1e-3
    assert module.max_number_difference(base, base) == 0.0
    assert module.max_number_difference(base, b'{"chi": 1.25}') is None  # counts differ
    assert module.max_number_difference(b"no numbers", b"none here") is None


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1  # the library quick start
    exec(compile(blocks[0], "README.md", "exec"), {})
