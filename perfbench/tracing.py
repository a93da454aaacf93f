"""Span recorder for the traced run, and the per-layer metrics derived from it.

Wrappers are installed at every module binding of each traced function
(``coding.eigh``, ``thermal.eigh`` and ``linalg.eigh`` are three bindings of
one function), so calls made through a ``from .linalg import eigh`` name are
seen too.  Spans (name, start, end, parent span, op id) are kept in flat
arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import warnings
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# module -> public functions wrapped there; GravcatParams is wrapped at its
# __init__, so one patch covers every binding of the class
TRACED: dict[str, tuple[str, ...]] = {
    "linalg": ("eigh", "matrix_function", "entropy_bits"),
    "thermal": (
        "thermal_closed_form", "gibbs_numeric", "build_hamiltonian", "assemble_thermal_state",
    ),
    "coding": (
        "capacity_closed_form", "capacity_numeric", "ensemble_average",
        "ensemble_average_via_marginal",
    ),
    "weak_measurement": (
        "capacity_wm_closed_form", "optimize_strength", "golden_section_maximize", "apply_qwm",
        "wm_state_closed_form",
    ),
    "sweep": ("cell_capacity", "evaluate_sweep", "figure_grid", "render_csv"),
    "verify": ("verification_report", "draw_sample"),
}

CLI_SUBCOMMANDS = ("version", "capacity", "optimize", "figure", "verify")

# summary entry counting capacity_wm_closed_form calls made inside optimize_strength
CHI_EVALS = "weak_measurement.capacity_wm_closed_form@optimize_strength"


class Recorder:
    """In-memory span store; wrappers record only while ``active`` is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.op_id = -1
        self.active = False
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (used around whole ops)."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, *, keyed=None, on_result=None):
        """Wrap ``fn`` in a span; ``keyed(args)`` appends a suffix to the name."""
        rec = self
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = rec.open(rec.name_id(f"{name}.{keyed(args)}") if keyed else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of the traced functions in the loaded package."""
        import gravcat_coding  # noqa: F401  (loads the traced submodules)
        from gravcat_coding import thermal

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gravcat_coding" or n.startswith("gravcat_coding."))]
        for short, fnames in TRACED.items():
            source = sys.modules[f"gravcat_coding.{short}"]
            for fname in fnames:
                original = getattr(source, fname)
                wrapper = self.wrap(f"{short}.{fname}", original, **_extras(short, fname, self))
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._patch(module, fname, wrapper)
        init = thermal.GravcatParams.__init__
        self._patch(thermal.GravcatParams, "__init__", self.wrap("thermal.GravcatParams", init))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def run_op(self, op_id: int, fn, *args):
        """Run one traced op under a root span, counting clamped eigenvalues."""
        from gravcat_coding import NumericalNoiseWarning

        self.op_id = op_id
        self.active = True
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", NumericalNoiseWarning)
                with self.span("op"):
                    return fn(*args)
        finally:
            self.active = False
            self.add("linalg.noise_clamps",
                     sum(1 for w in caught if issubclass(w.category, NumericalNoiseWarning)))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path, **scalars: float) -> None:
        np.savez(
            path, names=np.array(self.names), counters=np.array(json.dumps(self.counters)),
            **self.arrays(), **{k: np.array(v) for k, v in scalars.items()},
        )


def load(path) -> tuple[list[str], dict[str, np.ndarray], dict[str, float], dict[str, float]]:
    """(names, spans, counters, scalars) of a file written by ``Recorder.save``."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        spans = {k: data[k] for k in ("name", "parent", "op", "start", "end")}
        counters = json.loads(str(data["counters"]))
        scalars = {k: float(data[k]) for k in data.files
                   if k not in spans and k not in ("names", "counters")}
    return names, spans, counters, scalars


def _extras(short: str, fname: str, rec: Recorder) -> dict:
    if (short, fname) == ("sweep", "figure_grid"):
        return {"keyed": lambda args: args[0]}
    if (short, fname) == ("sweep", "render_csv"):
        return {"on_result": lambda text: rec.add("sweep.render_csv.bytes", len(text.encode()))}
    return {}


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.  The
    extra entry ``CHI_EVALS`` counts weak-measurement capacities evaluated
    inside ``optimize_strength``.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    self_time = dur - covered
    name = spans["name"]
    out = {}
    for nid, label in enumerate(names):
        mask = name == nid
        out[label] = {
            "calls": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
        }
    out[CHI_EVALS] = {
        "calls": _nested_calls(
            names, spans, "weak_measurement.capacity_wm_closed_form",
            "weak_measurement.optimize_strength",
        ),
        "total_s": 0.0,
        "self_s": 0.0,
    }
    return out



def merge(summaries) -> dict[str, dict[str, float]]:
    """Sum several summaries (one per traced process) name by name."""
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for label, entry in summary.items():
            acc = out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                acc[key] += value
    return out


def _nested_calls(names: list[str], spans: dict[str, np.ndarray], inner: str, outer: str) -> int:
    """Number of ``inner`` spans that have an ``outer`` span among their ancestors."""
    if inner not in names or outer not in names:
        return 0
    name, parent = spans["name"], spans["parent"]
    outer_id = names.index(outer)
    anc = parent[name == names.index(inner)]
    found = np.zeros(len(anc), dtype=bool)
    while (anc >= 0).any():
        live = anc >= 0
        found[live] |= name[anc[live]] == outer_id
        anc = np.where(live, parent[np.maximum(anc, 0)], -1)
    return int(found.sum())


def per_layer_metrics(totals, counters, cli: dict | None = None) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json, from merged summaries."""
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def t(label: str) -> dict:
        return totals.get(label, zero)

    optimize_calls = t("weak_measurement.optimize_strength")["calls"]
    chi_evals = t(CHI_EVALS)["calls"]
    m = {
        "linalg.eigh.calls": t("linalg.eigh")["calls"],
        "linalg.eigh.self_s": t("linalg.eigh")["self_s"],
        "linalg.matrix_function.self_s": t("linalg.matrix_function")["self_s"],
        "linalg.entropy_bits.calls": t("linalg.entropy_bits")["calls"],
        "linalg.entropy_bits.self_s": t("linalg.entropy_bits")["self_s"],
        "linalg.noise_clamps": int(counters.get("linalg.noise_clamps", 0)),
        "thermal.thermal_closed_form.calls": t("thermal.thermal_closed_form")["calls"],
        "thermal.thermal_closed_form.self_s": t("thermal.thermal_closed_form")["self_s"],
        "thermal.GravcatParams.calls": t("thermal.GravcatParams")["calls"],
        "thermal.GravcatParams.self_s": t("thermal.GravcatParams")["self_s"],
        "thermal.gibbs_numeric.calls": t("thermal.gibbs_numeric")["calls"],
        "thermal.gibbs_numeric.self_s": t("thermal.gibbs_numeric")["self_s"],
        "thermal.build_hamiltonian.self_s": t("thermal.build_hamiltonian")["self_s"],
        "coding.capacity_closed_form.calls": t("coding.capacity_closed_form")["calls"],
        "coding.capacity_closed_form.self_s": t("coding.capacity_closed_form")["self_s"],
        "coding.capacity_numeric.calls": t("coding.capacity_numeric")["calls"],
        "coding.capacity_numeric.self_s": t("coding.capacity_numeric")["self_s"],
        "coding.ensemble_average.self_s": t("coding.ensemble_average")["self_s"],
        "weak_measurement.capacity_wm_closed_form.calls":
            t("weak_measurement.capacity_wm_closed_form")["calls"],
        "weak_measurement.capacity_wm_closed_form.self_s":
            t("weak_measurement.capacity_wm_closed_form")["self_s"],
        "weak_measurement.optimize_strength.self_s":
            t("weak_measurement.optimize_strength")["self_s"],
        "weak_measurement.golden_section_maximize.self_s":
            t("weak_measurement.golden_section_maximize")["self_s"],
        "weak_measurement.chi_evals_per_point":
            chi_evals / optimize_calls if optimize_calls else 0.0,
        "weak_measurement.apply_qwm.self_s": t("weak_measurement.apply_qwm")["self_s"],
        "sweep.cell_capacity.calls": t("sweep.cell_capacity")["calls"],
        "sweep.evaluate_sweep.self_s": t("sweep.evaluate_sweep")["self_s"],
        "sweep.render_csv.self_s": t("sweep.render_csv")["self_s"],
        "sweep.render_csv.bytes": int(counters.get("sweep.render_csv.bytes", 0)),
        "sweep.figure_grid.2a.s": t("sweep.figure_grid.2a")["total_s"],
        "sweep.figure_grid.5a.s": t("sweep.figure_grid.5a")["total_s"],
        "verify.verification_report.self_s": t("verify.verification_report")["self_s"],
        "verify.draw_sample.self_s": t("verify.draw_sample")["self_s"],
    }
    cli = cli or {}
    m["cli.interpreter_s"] = cli.get("interpreter_s", 0.0)
    m["cli.import_s"] = cli.get("import_s", 0.0)
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main.{sub}.s"] = cli.get(f"main.{sub}.s", 0.0)
    return m
