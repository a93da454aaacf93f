"""Capacity grids over parameter planes, and their CSV/JSON serialization.

A sweep evaluates chi on a uniform inclusive 2-D grid; any two of
{omega, gamma, T, p} form the axes and the rest are fixed.  Each engine is
one array function of (omega, gamma, T, q) with q = 1 - p, listed in
``coding.ENGINES``; a grid on either engine is evaluated in blocks of whole rows,
one call each, and a cell has the same bits in a grid, a block, a row,
alone, or in the ``capacity`` command.  Output is deterministic
byte-for-byte for identical invocations: formatting is ordered, floats are
rendered as shortest round-trip decimals, and no timestamps are serialized.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .coding import ENGINES, engine_report
from .linalg import InvalidStateError, LocatedError
from .presets import FIGURES
from .thermal import GravcatParams, InvalidParameterError, check_domain
from .version import STAMP, TOOL_NAME, __version__

DEFAULT_AXES: dict[str, tuple[float, float, int]] = {
    "omega": (0.01, 3.0, 200),
    "gamma": (0.0, 3.0, 200),
    "T": (0.01, 2.0, 200),
    "p": (0.0, 0.999, 200),
}
AXIS_NAMES = tuple(DEFAULT_AXES)

CHI_MIN = -1e-10
CHI_MAX = 2.0 + 1e-10
# cells per engine call, in whole rows (at least one), sized to the cache:
# the closed form makes about 100 array passes over some 30 live temporaries
# per call, and at this size they stay in a core's 2 MiB L2.  Evaluating the
# ten 200x200 closed-form figures, per figure (min of 15, 2-CPU box):
#   65,536 cells 6.2 ms, 16,384 5.0 ms, 8,192 4.8 ms, 4,096 4.1 ms,
#   2,048 4.6 ms, 1,024 6.7 ms, 512 11.9 ms
# Below about 2k cells the per-call dispatch dominates; with the CSV render,
# 8,192 beat 4,096 in 52 of 60 interleaved pairs.  A 200x200 figure is 5
# calls of 40 rows, and a large grid's memory is that of one block.
SWEEP_BLOCK_CELLS = 8_192


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: a uniform inclusive grid of `count` points.

    The bounds are stored as Python floats and the count as a Python int, so
    numpy scalars give the same grid and serialize as JSON.
    """

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise InvalidParameterError(
                f"unknown axis {self.name!r}; expected one of {', '.join(AXIS_NAMES)}"
            )
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise InvalidParameterError(f"axis {self.name}: bounds must be finite")
        try:
            count = operator.index(self.count)  # refuses 3.0 as well as 2.5
        except TypeError:
            raise InvalidParameterError(
                f"axis {self.name}: count must be an integer, got {self.count!r}"
            ) from None
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        object.__setattr__(self, "count", count)
        if not self.start < self.stop:
            raise InvalidParameterError(
                f"axis {self.name}: start must be below stop, got [{self.start:g}, {self.stop:g}]"
            )
        if self.count < 2:
            raise InvalidParameterError(f"axis {self.name}: count must be at least 2")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "stop": self.stop, "count": self.count}

    @classmethod
    def parse(cls, text: str) -> "AxisSpec":
        """Parse the CLI syntax ``name:start:stop:count``."""
        parts = text.split(":")
        if len(parts) != 4:
            raise InvalidParameterError(
                f"axis spec {text!r} must look like name:start:stop:count"
            )
        name, start, stop, count = parts
        try:
            return cls(name=name, start=float(start), stop=float(stop), count=int(count))
        except ValueError as exc:
            raise InvalidParameterError(f"axis spec {text!r}: {exc}") from exc

    @classmethod
    def default(cls, name: str) -> "AxisSpec":
        start, stop, count = DEFAULT_AXES[name]
        return cls(name=name, start=start, stop=stop, count=count)


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """A computed capacity grid: values[iy][ix] = chi(x_values[ix], y_values[iy])."""

    x_axis: AxisSpec
    y_axis: AxisSpec
    fixed: dict[str, float]
    values: np.ndarray
    engine: str


def cell_capacity(
    engine: str,
    omega: float,
    gamma: float,
    temperature: float,
    strength: float | None = None,
) -> float:
    """chi for one validated parameter point, on either engine."""
    params = GravcatParams(omega, gamma, temperature)
    return engine_report(ENGINES[engine], params, strength).chi


def evaluate_sweep(
    x_axis: AxisSpec,
    y_axis: AxisSpec,
    fixed: dict[str, float],
    engine: str = "closed_form",
) -> SweepGrid:
    """Evaluate chi over the grid with the engine's array function.

    ``fixed`` must cover exactly the parameters that are not axes ("p" is
    optional: leaving it out means no weak measurement).  The rows go to the
    engine in blocks of whole rows of up to ``SWEEP_BLOCK_CELLS`` cells (one
    row where a row is longer), a size picked so that one call's temporaries
    stay in cache; so the memory the engine takes does not grow with the
    grid, and every cell has the same bits at any block size.  A failure at
    a cell aborts the sweep with the coordinates of the first failing cell.
    """
    engine_function = ENGINES[engine]
    if x_axis.name == y_axis.name:
        raise InvalidParameterError(f"axes must name distinct parameters, both are {x_axis.name!r}")
    axis_names = {x_axis.name, y_axis.name}
    required = {"omega", "gamma", "T"} - axis_names
    allowed = required | ({"p"} - axis_names)
    missing = required - fixed.keys()
    if missing:
        raise InvalidParameterError(f"missing fixed value(s) for: {', '.join(sorted(missing))}")
    extra = fixed.keys() - allowed
    if extra:
        raise InvalidParameterError(
            f"fixed value(s) conflict with the axes or are unknown: {', '.join(sorted(extra))}"
        )
    x_values, y_values = x_axis.values(), y_axis.values()
    point = {**fixed, x_axis.name: x_values[np.newaxis, :], y_axis.name: y_values[:, np.newaxis]}
    check_domain(
        omega=point["omega"], gamma=point["gamma"], temperature=point["T"],
        strength=point.get("p", 0.0),
    )
    fixed = {name: float(value) for name, value in fixed.items()}  # numpy scalars as floats
    point.update(fixed)
    values = np.empty((y_axis.count, x_axis.count))
    block_rows = max(1, SWEEP_BLOCK_CELLS // x_axis.count)
    for start in range(0, y_axis.count, block_rows):
        block = slice(start, start + block_rows)
        point[y_axis.name] = y_values[block, np.newaxis]
        p = point.get("p", 0.0)  # no p is p = 0, no measurement
        try:
            _, entropy_state, entropy_average, _ = engine_function(
                point["omega"], point["gamma"], point["T"], 1.0 - p
            )
        except LocatedError as exc:
            iy, ix = exc.index[:2]
            iy += start
            cell = {**fixed, x_axis.name: float(x_values[ix]), y_axis.name: float(y_values[iy])}
            coords = ", ".join(f"{k}={v:g}" for k, v in sorted(cell.items()))
            raise RuntimeError(f"sweep cell ({coords}) failed: {exc}") from exc
        np.subtract(entropy_average, entropy_state, out=values[block])
    return SweepGrid(x_axis=x_axis, y_axis=y_axis, fixed=fixed, values=values, engine=engine)


def _checked_values(grid: SweepGrid) -> np.ndarray:
    """The grid values as floats, refused if any escapes the capacity range."""
    values = np.asarray(grid.values, dtype=float)
    inside = (values >= CHI_MIN) & (values <= CHI_MAX)  # NaN is never inside
    if not inside.all():
        bad = float(values.flat[int(inside.argmin())])
        raise InvalidStateError(
            f"capacity value {bad!r} escapes [{CHI_MIN:g}, {CHI_MAX:g}]; refusing to emit"
        )
    return values


def _ordered_fixed(fixed: dict[str, float]) -> list[tuple[str, float]]:
    return [(name, fixed[name]) for name in AXIS_NAMES if name in fixed]


def _grid_fields(grid: SweepGrid) -> dict:
    """The fields that describe a grid in its JSON and in a figure's sidecar."""
    return {
        "engine": grid.engine,
        "x_axis": grid.x_axis.to_dict(),
        "y_axis": grid.y_axis.to_dict(),
        "fixed": dict(_ordered_fixed(grid.fixed)),
    }


def render_csv(grid: SweepGrid) -> str:
    """Serialize a grid in the self-describing CSV layout.

    Line 1 is ``# <tool> v<version> engine=<e> fixed=<k=v,...>``, line 2 the
    header ``y\\x,<x values>``, then one row per y value.
    """
    # the cell kernel is imported on first render: a process that runs without
    # a bytecode cache compiles each module it imports, and most commands
    # render no grid
    from .float_text import text_rows

    values = _checked_values(grid)
    fixed_part = ",".join(f"{k}={float(v)!r}" for k, v in _ordered_fixed(grid.fixed))
    header = (
        f"# {TOOL_NAME} v{__version__} engine={grid.engine} fixed={fixed_part}\n"
        "y\\x," + ",".join(map(repr, grid.x_axis.values().tolist())) + "\n"
    )
    heads = list(map(repr, grid.y_axis.values().tolist()))
    return "".join([header, *text_rows(values, heads)])


def render_json(grid: SweepGrid) -> str:
    """Serialize a grid as JSON (``indent=2``); ``values`` holds the rows of cells."""
    from .float_text import text_rows  # on first render, as in `render_csv`

    values = _checked_values(grid)
    payload = {
        **STAMP,
        **_grid_fields(grid),
        "x_values": grid.x_axis.values().tolist(),
        "y_values": grid.y_axis.values().tolist(),
        "values": [],
    }
    text = json.dumps(payload, indent=2)  # ends with '"values": []\n}'
    # each text row is ",v,v,...": one value per line, indented as json.dumps does
    rows = [
        "    [\n      " + row[1:].replace(",", ",\n      ") + "\n    ]"
        for block in text_rows(values, [""] * len(values))
        for row in block.splitlines()
    ]
    return text[: -len("[]\n}")] + "[\n" + ",\n".join(rows) + "\n  ]\n}\n"


def figure_grid(
    figure_id: str,
    engine: str = "closed_form",
    x_axis: AxisSpec | None = None,
    y_axis: AxisSpec | None = None,
) -> SweepGrid:
    """Evaluate one built-in figure grid (axes overridable)."""
    if figure_id not in FIGURES:
        known = ", ".join(sorted(FIGURES))
        raise InvalidParameterError(f"unknown figure id {figure_id!r}; known ids: {known}")
    preset = FIGURES[figure_id]
    x = x_axis if x_axis is not None else AxisSpec.default(preset.x)
    y = y_axis if y_axis is not None else AxisSpec.default(preset.y)
    if x.name != preset.x or y.name != preset.y:
        raise InvalidParameterError(
            f"figure {figure_id} uses axes ({preset.x}, {preset.y}), got ({x.name}, {y.name})"
        )
    return evaluate_sweep(x, y, dict(preset.fixed), engine=engine)


def figure_config(figure_id: str, grid: SweepGrid) -> dict:
    """Sidecar payload recording the exact configuration of a figure run."""
    return {**STAMP, "figure": figure_id, **_grid_fields(grid)}
