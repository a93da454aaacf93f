"""The four benchmark workloads: seeded inputs, the timed op, and the gate.

Each workload is a closed loop with one client: the next op starts only
after the previous one returned and was checked.  Inputs come from a
benchmark-owned SplitMix64 stream keyed by (seed, op index), so the program
under test receives only generated numbers.  ``check`` runs outside the
timed region and returns a list of failure messages (empty when correct).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import gravcat_coding as gc
import tracing
from reference import reference_chi

HERE = Path(__file__).resolve().parent
INTERPRETER_PROBES = 5

CAPACITY_TOL = 1e-9   # verify's capacity threshold
SAME_VALUE_TOL = 1e-12  # the CLI against the same code run in process

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The benchmark's own input generator (kept apart from the package's)."""

    def __init__(self, *keys: int) -> None:
        self.state = 0
        for key in keys:
            self.state = (self.state ^ (key & _MASK64)) & _MASK64
            self.state = self.next_u64()

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


def parse_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x values, y values, grid) of the package's CSV layout; raises on bad shape."""
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("# ") or not lines[1].startswith("y\\x,"):
        raise ValueError("CSV header lines are malformed")
    xs = np.array([float(v) for v in lines[1].split(",")[1:]])
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    if any(len(row) != len(xs) + 1 for row in rows):
        raise ValueError("CSV rows differ in length from the header")
    table = np.array(rows)
    return xs, table[:, 0], table[:, 1:]


def _close(label: str, got, want, tol: float) -> list[str]:
    dev = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    return [] if dev <= tol else [f"{label}: deviation {dev:.3e} exceeds {tol:.0e}"]


def _grid_point(fixed: dict, x_name: str, xs, y_name: str, ys) -> dict:
    point = dict(fixed)
    point[x_name], point[y_name] = xs, ys
    return point


class Workload:
    """One workload; subclasses define inputs, op and check."""

    name = ""
    item = ""           # what one op's items are (cells, points, ...)
    items_per_op = 1
    trace_ops = 1       # fixed op count of the traced segment

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root

    def stream(self, *keys: int) -> SplitMix64:
        return SplitMix64(self.seed, *keys)

    def inputs(self, i: int):
        raise NotImplementedError

    def yardstick(self) -> None:
        """Fixed benchmark-owned task with the op's resource profile, timed before each op."""
        python_yardstick()

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out, op_index: int) -> list[str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stage_seconds(self, out) -> tuple[float, ...]:
        """Seconds of the op's stages, when the op has more than one."""
        return ()

    def named_rates(self, op_seconds: list[float], stages: list[tuple[float, ...]]) -> dict:
        """The workload's throughputs under their own names, for the run facts."""
        return {}

    def traced_runner(self, rec):
        return lambda inp, i: rec.run_op(i, self.op, inp)

    def trace_summary(self, rec):
        """(merged span totals, counters, CLI timings) of the traced segment."""
        rec.save(output_dir(self.root, "spans") / f"{self.name}-seed{self.seed}.npz")
        return tracing.summarize(rec.names, rec.arrays()), rec.counters, None


class FiguresClosed(Workload):
    """All ten presets at default 200x200 axes, closed form, CSV rendered in the op."""

    name = "figures-closed"
    item = "cells"
    items_per_op = 200 * 200
    trace_ops = len(gc.FIGURES)  # one pass: 400,000 cells
    numeric_samples_per_op = 12

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        order = sorted(gc.FIGURES)
        rng = self.stream(0)
        for k in range(len(order) - 1, 0, -1):  # seeded rotation order
            j = rng.next_u64() % (k + 1)
            order[k], order[j] = order[j], order[k]
        self.order = order

    def inputs(self, i: int) -> str:
        return self.order[i % len(self.order)]

    def op(self, figure_id: str):
        grid = gc.figure_grid(figure_id)
        return grid, gc.render_csv(grid)

    def expected_axes(self, figure_id: str):
        preset = gc.FIGURES[figure_id]
        return preset, gc.AxisSpec.default(preset.x).values(), gc.AxisSpec.default(preset.y).values()

    def check(self, figure_id: str, out, op_index: int) -> list[str]:
        _, text = out
        preset, x_want, y_want = self.expected_axes(figure_id)
        xs, ys, values = parse_csv(text)
        if values.shape != (len(y_want), len(x_want)):
            return [f"figure {figure_id}: grid shape {values.shape}"]
        fails = _close(f"figure {figure_id} x axis", xs, x_want, SAME_VALUE_TOL)
        fails += _close(f"figure {figure_id} y axis", ys, y_want, SAME_VALUE_TOL)
        if not ((values >= 0.0) & (values <= 2.0)).all():
            fails.append(f"figure {figure_id}: a value lies outside [0, 2]")
        gx, gy = np.meshgrid(x_want, y_want)
        point = _grid_point(preset.fixed, preset.x, gx, preset.y, gy)
        ref = reference_chi(point["omega"], point["gamma"], point["T"], point.get("p"))
        fails += _close(f"figure {figure_id} vs reference", values, ref, CAPACITY_TOL)
        rng = self.stream(1, op_index)
        for _ in range(self.numeric_samples_per_op):
            iy = rng.next_u64() % len(y_want)
            ix = rng.next_u64() % len(x_want)
            cell = _grid_point(preset.fixed, preset.x, float(x_want[ix]), preset.y, float(y_want[iy]))
            numeric = gc.cell_capacity(
                "numeric", cell["omega"], cell["gamma"], cell["T"], cell.get("p")
            )
            fails += _close(f"figure {figure_id} cell ({iy}, {ix}) vs numeric",
                            values[iy, ix], numeric, CAPACITY_TOL)
        return fails

    def named_rates(self, op_seconds, stages) -> dict:
        return {"figures_cells_per_s": _median_rate(self.items_per_op, op_seconds)}


class OptimizePoints(Workload):
    """optimize_strength on seeded points; T is log-uniform on [0.01, 10]."""

    name = "optimize-points"
    item = "points"
    items_per_op = 16
    trace_ops = 25  # 400 points

    def inputs(self, i: int) -> list[tuple[float, float, float]]:
        rng = self.stream(2, i)
        points = []
        for _ in range(self.items_per_op):
            omega = 3.0 * (1.0 - rng.uniform())
            gamma = 3.0 * rng.uniform()
            temperature = 10.0 ** (-2.0 + 3.0 * rng.uniform())
            points.append((omega, gamma, temperature))
        return points

    def op(self, points):
        out = []
        for omega, gamma, temperature in points:
            out.append(gc.optimize_strength(gc.GravcatParams(omega, gamma, temperature)))
        return out

    def check(self, points, out, op_index: int) -> list[str]:
        fails = []
        for (omega, gamma, temperature), (p_star, chi_star) in zip(points, out, strict=True):
            label = f"optimize(omega={omega!r}, gamma={gamma!r}, T={temperature!r})"
            params = gc.GravcatParams(omega, gamma, temperature)
            if not 0.0 <= p_star < 1.0:
                fails.append(f"{label}: p_star {p_star!r} outside [0, 1)")
                continue
            if chi_star < gc.capacity_wm_closed_form(params, 0.0).chi:
                fails.append(f"{label}: chi_star below chi(p=0)")
            rho = gc.gibbs_numeric(gc.build_hamiltonian(params), temperature)
            numeric = gc.capacity_numeric(gc.apply_qwm(rho, p_star).state).chi
            fails += _close(f"{label} vs numeric", chi_star, numeric, CAPACITY_TOL)
        return fails

    def named_rates(self, op_seconds, stages) -> dict:
        return {"optimize_points_per_s": _median_rate(self.items_per_op, op_seconds)}


class OracleNumeric(Workload):
    """verification_report plus a numeric-engine sweep over the 5a (T, p) plane."""

    name = "oracle-numeric"
    item = "verify samples + numeric cells"
    verify_samples = 100
    grid_side = 12
    items_per_op = verify_samples + grid_side * grid_side
    trace_ops = 10

    def yardstick(self) -> None:
        numpy_yardstick()

    def inputs(self, i: int):
        rng = self.stream(3, i)
        verify_seed = rng.next_u64() >> 1
        x_axis = gc.AxisSpec("T", 0.01 + 0.09 * rng.uniform(), 2.0, self.grid_side)
        y_axis = gc.AxisSpec("p", 0.0, 0.9 + 0.099 * rng.uniform(), self.grid_side)
        return verify_seed, x_axis, y_axis

    def op(self, inp):
        verify_seed, x_axis, y_axis = inp
        t0 = perf_counter()
        report = gc.verification_report(self.verify_samples, verify_seed)
        t1 = perf_counter()
        grid = gc.evaluate_sweep(x_axis, y_axis, dict(gc.FIGURES["5a"].fixed), engine="numeric")
        t2 = perf_counter()
        return report, grid, (t1 - t0, t2 - t1)

    def check(self, inp, out, op_index: int) -> list[str]:
        verify_seed, x_axis, y_axis = inp
        report, grid, _ = out
        fails = []
        if report.get("all_passed") is not True or report.get("samples") != self.verify_samples:
            fails.append(f"verify seed {verify_seed}: report did not pass")
        values = np.asarray(grid.values, dtype=float)
        if values.shape != (y_axis.count, x_axis.count):
            return fails + [f"numeric grid shape {values.shape}"]
        closed = gc.evaluate_sweep(x_axis, y_axis, dict(gc.FIGURES["5a"].fixed)).values
        fails += _close("numeric grid vs closed form", values, closed, CAPACITY_TOL)
        return fails

    def stage_seconds(self, out) -> tuple[float, ...]:
        return out[2]

    def named_rates(self, op_seconds, stages) -> dict:
        verify_s = [s[0] for s in stages]
        numeric_s = [s[1] for s in stages]
        return {
            "verify_samples_per_s": _median_rate(self.verify_samples, verify_s),
            "numeric_cells_per_s": _median_rate(self.grid_side**2, numeric_s),
        }


class CliCold(Workload):
    """Fresh ``python -m gravcat_coding`` processes in a fixed rotation."""

    name = "cli-cold"
    item = "calls"
    items_per_op = 1
    trace_ops = 12  # two rotations
    rotation = ("version", "capacity", "capacity-numeric", "optimize", "figure", "verify")
    figure_axes = ("gamma:0:3:20", "omega:0.01:3:20")
    verify_samples = 20

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        import gravcat_coding.cli  # noqa: F401  (part of set-up: the CLI's import cost)

        self.workdir = output_dir(root, "cli")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["GRAVCAT_JOBS"] = str(affinity_count())
        self.child_peak_kb = 0

    def inputs(self, i: int):
        kind = self.rotation[i % len(self.rotation)]
        rng = self.stream(4, i)
        omega = 0.05 + 2.95 * rng.uniform()
        gamma = 3.0 * rng.uniform()
        temperature = 0.05 + 1.95 * rng.uniform()
        strength = 0.9 * rng.uniform()
        point = ["--omega", repr(omega), "--gamma", repr(gamma), "--temp", repr(temperature)]
        if kind == "version":
            argv = ["--version"]
        elif kind == "capacity":
            argv = ["capacity", *point]
        elif kind == "capacity-numeric":
            argv = ["capacity", "--engine", "numeric", *point, "--p", repr(strength)]
        elif kind == "optimize":
            argv = ["optimize", *point]
        elif kind == "figure":
            x, y = self.figure_axes
            argv = ["figure", "2a", "--x", x, "--y", y, "--output", str(self.workdir / "fig.csv")]
        else:
            argv = ["verify", "--samples", str(self.verify_samples), "--seed", str(rng.next_u64() >> 1)]
        return kind, (omega, gamma, temperature, strength), argv

    def yardstick(self) -> None:
        """A fresh interpreter importing numpy, the fixed part of every CLI call."""
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env, check=True)

    def command(self, argv: list[str]) -> list[str]:
        return [sys.executable, "-m", "gravcat_coding", *argv]

    def spawn(self, cmd: list[str]) -> tuple[int, str, str]:
        """Run one child to completion; its peak RSS comes from wait4."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(), err_path.read_text()

    def op(self, inp):
        return self.spawn(self.command(inp[2]))

    def check(self, inp, out, op_index: int) -> list[str]:
        kind, (omega, gamma, temperature, strength), argv = inp
        code, stdout, stderr = out
        label = f"cli {' '.join(argv)}"
        if code != 0:
            return [f"{label}: exit code {code}: {stderr.strip()[:200]}"]
        try:
            return self._check_output(kind, omega, gamma, temperature, strength, argv, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{label}: output does not parse: {exc}"]

    def _check_output(self, kind, omega, gamma, temperature, strength, argv, stdout) -> list[str]:
        label = f"cli {kind}"
        if kind == "version":
            want = f"{gc.TOOL_NAME} {gc.__version__}"
            return [] if stdout.strip() == want else [f"{label}: printed {stdout.strip()!r}"]
        if kind == "figure":
            text = (self.workdir / "fig.csv").read_text()
            sidecar = json.loads((self.workdir / "fig.csv.json").read_text())
            x_axis, y_axis = (gc.AxisSpec.parse(a) for a in self.figure_axes)
            want = gc.figure_grid("2a", x_axis=x_axis, y_axis=y_axis).values
            fails = _close(label, parse_csv(text)[2], want, SAME_VALUE_TOL)
            return fails + ([] if sidecar["figure"] == "2a" else [f"{label}: sidecar names "
                                                                   f"{sidecar['figure']!r}"])
        payload = json.loads(stdout)
        if kind == "verify":
            want = gc.verification_report(self.verify_samples, int(argv[-1]))
            fails = [] if payload["all_passed"] is True else [f"{label}: report did not pass"]
            for name, entry in want["checks"].items():
                fails += _close(f"{label} {name}", payload["checks"][name]["max_deviation"],
                                entry["max_deviation"], SAME_VALUE_TOL)
            return fails
        params = gc.GravcatParams(omega, gamma, temperature)
        if kind == "optimize":
            p_star, chi_star = gc.optimize_strength(params)
            return (_close(f"{label} p_star", payload["p_star"], p_star, SAME_VALUE_TOL)
                    + _close(f"{label} chi_star", payload["chi_star"], chi_star, SAME_VALUE_TOL))
        if kind == "capacity":
            want = gc.cell_capacity("closed_form", omega, gamma, temperature)
        else:
            want = gc.cell_capacity("numeric", omega, gamma, temperature, strength)
        return _close(f"{label} chi", payload["chi"], want, SAME_VALUE_TOL)

    def peak_rss_mb(self) -> float:
        return self.child_peak_kb / 1024.0

    def traced_runner(self, rec):
        self.span_files: list[tuple[str, Path]] = []
        folder = output_dir(self.root, "spans", f"{self.name}-seed{self.seed}")

        def run(inp, i):
            path = folder / f"call{i}.npz"
            self.span_files.append((inp[0], path))
            return self.spawn([sys.executable, str(HERE / "launch.py"), str(path), *inp[2]])

        return run

    def trace_summary(self, rec):
        summaries, counters, import_s = [], {}, []
        main_s: dict[str, list[float]] = {}
        for kind, path in self.span_files:
            names, spans, file_counters, scalars = tracing.load(path)
            summary = tracing.summarize(names, spans)
            summaries.append(summary)
            for key, value in file_counters.items():
                counters[key] = counters.get(key, 0) + value
            import_s.append(scalars["import_s"])
            sub = kind.split("-")[0]
            main_s.setdefault(sub, []).append(summary[f"cli.main.{sub}"]["total_s"])
        interpreter_s = []
        for _ in range(INTERPRETER_PROBES):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, env=self.env)
            interpreter_s.append(perf_counter() - t0)
        cli = {"interpreter_s": statistics.median(interpreter_s),
               "import_s": statistics.median(import_s)}
        cli.update({f"main.{sub}.s": statistics.median(v) for sub, v in main_s.items()})
        return tracing.merge(summaries), counters, cli


def python_yardstick(points: int = 6000) -> float:
    """Scalar closed-form arithmetic in pure Python: the yardstick of the in-process ops."""
    acc = 0.0
    for i in range(points):
        omega, gamma, temperature = 0.01 + 1e-3 * i, 3.0 * (i % 97) / 97, 0.01 + 0.15 * (i % 13)
        theta = math.hypot(omega, gamma)
        x, y = theta / temperature, gamma / temperature
        ex2, exy, ey2 = math.exp(-2.0 * x), math.exp(-(x - y)), math.exp(-2.0 * y)
        z = (1.0 + ex2) + exy * (1.0 + ey2)
        rw = omega / theta
        weights = sorted(
            (((1.0 - rw) + ex2 * (1.0 + rw)) / (2.0 * z), ((1.0 + rw) + ex2 * (1.0 - rw)) / (2.0 * z),
             exy * (1.0 + ey2) / (2.0 * z)),
            reverse=True,
        )
        acc -= sum(w * math.log2(w) for w in weights if w > 0.0)
    return acc


def numpy_yardstick(steps: int = 1000) -> float:
    """Plane rotations on a 4x4 complex matrix: the yardstick of the Jacobi-bound ops."""
    a = np.eye(4, dtype=complex) + 0.1j * np.arange(16).reshape(4, 4)
    c, s = math.cos(0.3), math.sin(0.3)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    for k in range(steps):
        p, q = k % 3, 3
        a[:, [p, q]] = a[:, [p, q]] @ u
        a[[p, q], :] = u.conj().T @ a[[p, q], :]
        a /= float(np.abs(a).max())
    return float(a.real.sum())


def output_dir(root: Path, *parts: str) -> Path:
    """A folder under the git-ignored ``.perfbench`` of the checkout."""
    folder = root.joinpath(".perfbench", *parts)
    folder.mkdir(parents=True, exist_ok=True)
    return folder


def affinity_count() -> int:
    return len(os.sched_getaffinity(0))


def _median_rate(items: int, seconds: list[float]) -> float:
    return statistics.median(items / s for s in seconds)


WORKLOADS = {w.name: w for w in (FiguresClosed, OptimizePoints, OracleNumeric, CliCold)}


def make(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](seed, root)
