"""The sweep layer: axes, grids, rendering and figures.  A cell's bits by every
route and the engines' agreement on a grid are one parametrized test each."""

import json
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gravcat_coding.float_text as float_text
import gravcat_coding.numeric as numeric_module
import gravcat_coding.sweep as sweep_module
from gravcat_coding import (
    AxisSpec,
    DEFAULT_AXES,
    FIGURES,
    GravcatParams,
    InvalidParameterError,
    InvalidStateError,
    SweepGrid,
    __version__,
    evaluate_sweep,
    figure_config,
    figure_grid,
    render_csv,
    render_json,
)
from gravcat_coding.coding import ENGINES, engine_report
from gravcat_coding.numeric import numeric_engine
from conftest import CHI, broadcast_numeric_engine


# ----------------------------------------------------------- AxisSpec

def test_axis_parse_roundtrip():
    axis = AxisSpec.parse("omega:0.01:3:200")
    assert axis == AxisSpec(name="omega", start=0.01, stop=3.0, count=200)
    values = axis.values()
    assert len(values) == 200
    assert values[0] == 0.01 and values[-1] == 3.0


@pytest.mark.parametrize(
    "text",
    [
        "omega:0.01:3",          # missing count
        "omega:0.01:3:200:9",    # too many fields
        "omega:a:3:200",         # bad float
        "omega:3:0.01:200",      # start above stop
        "omega:0.01:3:1",        # count below 2
        "tau:0.01:3:200",        # unknown name
    ],
)
def test_axis_parse_rejects_malformed(text):
    with pytest.raises(InvalidParameterError):
        AxisSpec.parse(text)


@pytest.mark.parametrize("count", [3.0, 2.5, "3"])
def test_axis_count_must_be_an_integer(count):
    with pytest.raises(InvalidParameterError, match="count must be an integer"):
        AxisSpec("T", 0.1, 1.0, count)


def test_numpy_scalar_axes_and_fixed_values_give_the_float_grid(tmp_path):
    # numpy scalars are stored as Python numbers: the same grid, the same
    # bytes in every format, and JSON can serialize them
    plain = evaluate_sweep(AxisSpec("T", 0.25, 1.0, 3), AxisSpec("p", 0.0, 0.5, 2),
                           {"omega": 1.0, "gamma": 0.5})
    typed = evaluate_sweep(
        AxisSpec("T", np.float32(0.25), np.float64(1.0), np.int64(3)),
        AxisSpec("p", np.float16(0.0), 0.5, np.int32(2)),
        {"omega": np.float32(1.0), "gamma": np.float32(0.5)},
    )
    assert [type(v) for v in (typed.x_axis.start, typed.x_axis.stop, typed.x_axis.count)] == [
        float, float, int
    ]
    assert [type(v) for v in typed.fixed.values()] == [float, float]
    assert np.array_equal(typed.values, plain.values)
    for render in (render_csv, render_json):
        assert render(typed) == render(plain)
    assert figure_config("5a", typed) == figure_config("5a", plain)


def test_default_axes_table():
    assert DEFAULT_AXES == {
        "omega": (0.01, 3.0, 200),
        "gamma": (0.0, 3.0, 200),
        "T": (0.01, 2.0, 200),
        "p": (0.0, 0.999, 200),
    }


# ----------------------------------------------------- sweep evaluation

def test_sweep_rejects_duplicate_axes():
    with pytest.raises(InvalidParameterError, match="distinct"):
        evaluate_sweep(
            AxisSpec("omega", 0.1, 1.0, 3), AxisSpec("omega", 0.1, 1.0, 3), {"gamma": 1.0, "T": 1.0}
        )


def test_sweep_requires_exact_fixed_cover():
    x = AxisSpec("gamma", 0.0, 1.0, 3)
    y = AxisSpec("omega", 0.1, 1.0, 3)
    with pytest.raises(InvalidParameterError, match="missing"):
        evaluate_sweep(x, y, {})
    with pytest.raises(InvalidParameterError, match="conflict"):
        evaluate_sweep(x, y, {"T": 1.0, "gamma": 0.5})


@pytest.mark.parametrize(
    "x, y, fixed",
    [
        (AxisSpec("gamma", 0.0, 3.0, 20), AxisSpec("omega", 0.1, 3.0, 20), {"T": 0.9}),
        (AxisSpec("T", 0.1, 2.0, 5), AxisSpec("p", 0.0, 0.9, 5), {"omega": 1.0, "gamma": 1.0}),
    ],
    ids=["gamma-omega", "T-p"],
)
def test_engines_agree_on_a_grid(x, y, fixed):
    closed = evaluate_sweep(x, y, fixed, engine="closed_form")
    numeric = evaluate_sweep(x, y, fixed, engine="numeric")
    assert np.abs(closed.values - numeric.values).max() < 1e-9


def test_capacity_decays_with_temperature_at_every_splitting():
    grid = evaluate_sweep(
        AxisSpec("T", 0.1, 2.0, 6), AxisSpec("omega", 0.2, 3.0, 6), {"gamma": 1.0}
    )
    # chi at the hottest column stays below the coldest one for every omega row
    assert (grid.values[:, -1] < grid.values[:, 0]).all()


@pytest.mark.parametrize(
    "x, y, fixed, hamiltonians",
    [
        (AxisSpec("T", 0.05, 2.0, 6), AxisSpec("p", 0.0, 0.95, 5), {"omega": 1.3, "gamma": 0.8}, 1),
        (AxisSpec("T", 0.05, 2.0, 6), AxisSpec("omega", 0.1, 3.0, 5), {"gamma": 0.8, "p": 0.5}, 5),
        (AxisSpec("p", 0.0, 0.95, 6), AxisSpec("gamma", 0.0, 3.0, 5), {"omega": 1.3, "T": 0.4}, 5),
        (AxisSpec("gamma", 0.0, 3.0, 6), AxisSpec("omega", 0.1, 3.0, 5), {"T": 0.4}, 30),
    ],
    ids=["T-p", "T-omega", "p-gamma", "gamma-omega"],
)
def test_numeric_grid_solves_eigenvectors_only_for_the_gibbs_states(
    solve_counts, symmetry_scans, x, y, fixed, hamiltonians
):
    # one eigh call over the grid's distinct Hamiltonians, one per
    # (omega, gamma); the spectra of the 30 states and of their 2x2 reduced
    # states are solved for eigenvalues alone
    evaluate_sweep(x, y, fixed, engine="numeric")
    assert solve_counts == {"eigh": [1, hamiltonians], "eigvalsh": [2, 60]}
    # no symmetry scan: the grid's parameters passed the domain check, and the
    # Hamiltonians, states and reduced states are symmetric by construction
    assert symmetry_scans == [0]


def test_fixed_strength_changes_cells():
    x = AxisSpec("gamma", 0.5, 2.0, 3)
    y = AxisSpec("omega", 0.5, 2.0, 3)
    plain = evaluate_sweep(x, y, {"T": 1.0})
    measured = evaluate_sweep(x, y, {"T": 1.0, "p": 0.9})
    assert not np.allclose(plain.values, measured.values)


VANISHING_AT_P1 = (
    AxisSpec("p", 0.0, 1.0, 3), AxisSpec("T", 1e-3, 2e-3, 2), {"omega": 1.0, "gamma": 0.0}
)


@pytest.fixture
def refusing_numeric_engine(monkeypatch):
    """The numeric engine with the post-selection of a general state, which
    refuses a vanishing kept weight at p = 1 where the engine's own Gibbs
    states keep |00><00|: a cell that fails, for the sweep to report."""
    general = numeric_module._post_select
    monkeypatch.setattr(numeric_module, "_post_select", lambda rho, q, **_: general(rho, q))


def test_cell_failures_abort_with_context(refusing_numeric_engine):
    # the |00> branch kept at p = 1 has vanishing probability and the engine
    # refuses it, so the sweep aborts naming the first such cell (row-major)
    # instead of emitting rows
    first_bad = r"sweep cell \(T=0\.001, gamma=0, omega=1, p=1\) failed"
    with pytest.raises(RuntimeError, match=first_bad):
        evaluate_sweep(*VANISHING_AT_P1, engine="numeric")


def test_failing_cell_and_index_are_those_of_the_broadcast_engine(
    monkeypatch, refusing_numeric_engine
):
    # the engine solves one Hamiltonian here; the error still comes from the
    # whole block and locates the same cell
    errors = []
    for engine in (numeric_engine, broadcast_numeric_engine):
        monkeypatch.setitem(sweep_module.ENGINES, "numeric", engine)
        with pytest.raises(RuntimeError) as info:
            evaluate_sweep(*VANISHING_AT_P1, engine="numeric")
        errors.append((str(info.value), info.value.__cause__.index))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_failure_in_a_later_block_names_its_cell(
    monkeypatch, refusing_numeric_engine, block_rows
):
    # the failing cells are in the last row (p = 1): with blocks of one or
    # two rows the error comes from a later block and names the same cell
    monkeypatch.setattr(sweep_module, "SWEEP_BLOCK_CELLS", 2 * block_rows)
    p_axis, t_axis, fixed = VANISHING_AT_P1
    first_bad = r"sweep cell \(T=0\.001, gamma=0, omega=1, p=1\) failed"
    with pytest.raises(RuntimeError, match=first_bad):
        evaluate_sweep(t_axis, p_axis, fixed, engine="numeric")


# ------------------------------------------ a cell's bits, by every route

def _cell(grid, x_value, y_value):
    """The parameters of a cell, or of a row where ``x_value`` is the x axis."""
    return {**grid.fixed, grid.x_axis.name: x_value, grid.y_axis.name: y_value}


def _chi(engine, point):
    q = (1.0 - point["p"],) if "p" in point else ()
    return CHI[engine](point["omega"], point["gamma"], point["T"], *q)


def _by_reports(make, grid, _):
    # engine_report at each cell, on Python floats
    x, y = grid.x_axis.values().tolist(), grid.y_axis.values().tolist()
    chi = [
        engine_report(ENGINES[grid.engine], GravcatParams(pt["omega"], pt["gamma"], pt["T"]),
                      pt.get("p")).chi
        for pt in (_cell(grid, u, v) for v in y for u in x)
    ]
    return [("reports", np.reshape(chi, grid.values.shape))]


def _by_rows_and_cells(make, grid, _):
    # the engine's chi function on a row at a time and on a cell at a time,
    # on numpy scalars of the axes
    x, y = grid.x_axis.values(), grid.y_axis.values()
    rows = [_chi(grid.engine, _cell(grid, x, v)) for v in y]
    cells = [[_chi(grid.engine, _cell(grid, u, v)) for u in x] for v in y]
    return [("rows", np.array(rows)), ("cells", np.array(cells))]


def _by_blocks(make, grid, sizes):
    # the grid again at each SWEEP_BLOCK_CELLS in ``sizes``
    grids = []
    for cells in sizes:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep_module, "SWEEP_BLOCK_CELLS", cells)
            grids.append((f"blocks of {cells} cells", make().values))
    return grids


BLOCKED_GRIDS = {
    "gamma-omega": (
        AxisSpec("gamma", 0.0, 3.0, 9), AxisSpec("omega", 0.01, 3.0, 23), {"T": 0.05, "p": 0.6}
    ),
    "T-p": (AxisSpec("T", 0.01, 2.0, 9), AxisSpec("p", 0.0, 1.0, 23), {"omega": 1.3, "gamma": 0.8}),
}
# case -> (a grid: its axes and fixed values, or a figure id; the engine;
# the routes that must give each cell its bits, with their argument)
ROUTE_CASES = {
    "reports-gamma-omega": ((AxisSpec("gamma", 0.0, 1.0, 3), AxisSpec("omega", 0.5, 1.5, 2),
                             {"T": 0.7}), "closed_form", {_by_reports: None}),
    "reports-T-p": ((AxisSpec("T", 0.003, 2.0, 7), AxisSpec("p", 0.0, 1.0, 6),
                     {"omega": 1.3, "gamma": 0.4}), "closed_form", {_by_reports: None}),
    "rows-cells-gamma-omega": ((AxisSpec("gamma", 0.0, 3.0, 37), AxisSpec("omega", 0.01, 3.0, 23),
                                {"T": 0.01, "p": 0.7}), "closed_form", {_by_rows_and_cells: None}),
    # the numeric engine evaluates a grid as one stack of 4x4 matrices
    "rows-reports-T-p-numeric": (
        (AxisSpec("T", 0.05, 2.0, 6), AxisSpec("p", 0.0, 0.95, 5), {"omega": 1.3, "gamma": 0.8}),
        "numeric", {_by_rows_and_cells: None, _by_reports: None},
    ),
    # blocks of 1 row, of 7 rows (the last one short) and the whole grid
    **{
        f"blocks-{name}-{engine}": (
            (x, y, fixed), engine, {_by_blocks: (1, 7 * x.count, x.count * y.count)}
        )
        for name, (x, y, fixed) in BLOCKED_GRIDS.items()
        for engine in ("closed_form", "numeric")
    },
    # the default block size against the whole 200x200 grid in one call
    **{
        f"figure-{figure_id}-{engine}": (figure_id, engine, {_by_blocks: (40_000,)})
        for engine, figure_ids in (("closed_form", sorted(FIGURES)), ("numeric", ["5a"]))
        for figure_id in figure_ids
    },
}


@pytest.mark.parametrize("case", list(ROUTE_CASES))
def test_cell_bits_do_not_depend_on_the_route(case):
    # a cell has the bits of the whole grid in its row, alone, through
    # engine_report and at any block size, and the grid renders the same bytes
    grid_args, engine, routes = ROUTE_CASES[case]
    if isinstance(grid_args, str):
        make = partial(figure_grid, grid_args, engine=engine)
    else:
        make = partial(evaluate_sweep, *grid_args, engine=engine)
    grid = make()
    for route, argument in routes.items():
        for name, values in route(make, grid, argument):
            assert np.array_equal(values, grid.values), name
            assert np.array_equal(values.view(np.uint64), grid.values.view(np.uint64)), name
            assert render_csv(replace(grid, values=values)) == render_csv(grid), name


ENGINE_ARGUMENT = {"omega": 0, "gamma": 1, "T": 2, "p": 3}


def test_grids_go_to_the_engine_in_whole_consecutive_rows(monkeypatch):
    # each call takes whole rows, at most SWEEP_BLOCK_CELLS cells or a single
    # longer row, and the calls cover the rows once each and in order; the
    # 12x12 and 20x20 grids stay one call
    calls = []
    engine = sweep_module.ENGINES["closed_form"]

    def recording(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setitem(sweep_module.ENGINES, "closed_form", recording)
    figures = [
        (AxisSpec.default(preset.x), AxisSpec.default(preset.y), preset.fixed)
        for preset in FIGURES.values()
    ]
    small = [
        (AxisSpec("T", 0.05, 2.0, n), AxisSpec("p", 0.0, 0.95, n), {"omega": 1.0, "gamma": 1.0})
        for n in (12, 20)
    ]
    long_rows = (AxisSpec("omega", 0.01, 3.0, 9000), AxisSpec("T", 0.05, 2.0, 3), {"gamma": 1.0})
    for x, y, fixed in [*figures, *small, long_rows]:
        calls.clear()
        evaluate_sweep(x, y, fixed)
        rows = y.values()[:, np.newaxis]
        if y.name == "p":
            rows = 1.0 - rows  # the engine takes q = 1 - p
        covered = 0
        for args in calls:
            count, width = np.broadcast_shapes(*map(np.shape, args))
            assert width == x.count
            assert count * width <= sweep_module.SWEEP_BLOCK_CELLS or count == 1
            assert np.array_equal(args[ENGINE_ARGUMENT[y.name]], rows[covered:covered + count])
            covered += count
        assert covered == y.count
        if (x, y, fixed) in small:
            assert len(calls) == 1


def test_large_grid_memory_is_that_of_one_block():
    # 500,000 closed-form cells take about 200 bytes per cell of one block
    # beyond the grid itself; the whole grid in one call would take 92 MB
    x = AxisSpec("gamma", 0.0, 3.0, 500)
    y = AxisSpec("omega", 0.01, 3.0, 1000)
    tracemalloc.start()
    try:
        grid = evaluate_sweep(x, y, {"T": 0.3, "p": 0.4})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= grid.values.nbytes + 512 * sweep_module.SWEEP_BLOCK_CELLS


def test_render_memory_is_that_of_one_chunk():
    # a render ends holding its text twice (the blocks, then their join);
    # before that it holds the blocks made so far and one chunk's
    # temporaries, at most about 116 bytes per chunk cell.  The warm-up
    # builds the digit tables.
    grid = figure_grid("2a")
    render_csv(grid)
    tracemalloc.start()
    try:
        text = render_csv(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text) + 128 * float_text.CHUNK_CELLS


def test_projective_cells_with_vanishing_weight_are_one_bit():
    # at gamma = 0 and omega/T = 1000 the |00> weight kept at p = 1 underflows;
    # both engines report the kept |00><00| state there: exactly one bit
    for engine in ("closed_form", "numeric"):
        grid = evaluate_sweep(*VANISHING_AT_P1, engine=engine)
        assert np.array_equal(grid.values[:, 2], [1.0, 1.0])
        assert render_csv(grid).endswith(",1.0\n")


def test_unknown_engine_rejected():
    with pytest.raises(InvalidParameterError, match="engine"):
        evaluate_sweep(
            AxisSpec("gamma", 0.0, 1.0, 2),
            AxisSpec("omega", 0.5, 1.0, 2),
            {"T": 1.0},
            engine="magic",
        )


# -------------------------------------------------------- serialization

def test_csv_layout_is_exact():
    grid = evaluate_sweep(
        AxisSpec("gamma", 0.0, 1.0, 3), AxisSpec("omega", 0.5, 1.5, 2), {"T":  0.7}
    )
    text = render_csv(grid)
    lines = text.split("\n")
    assert lines[0] == "# gravcat-coding v0.1.0 engine=closed_form fixed=T=0.7"
    assert lines[1] == "y\\x,0.0,0.5,1.0"
    assert lines[2].startswith("0.5,") and lines[3].startswith("1.5,")
    assert text.endswith("\n") and lines[-1] == ""
    # every cell round-trips through the shortest-decimal rendering
    for iy, line in enumerate(lines[2:4]):
        cells = [float(tok) for tok in line.split(",")[1:]]
        assert cells == [float(v) for v in grid.values[iy]]


def test_render_bytes_are_pinned():
    grid = SweepGrid(
        x_axis=AxisSpec("gamma", 0.0, 1.0, 3),
        y_axis=AxisSpec("omega", 0.5, 1.5, 2),
        fixed={"T": 0.7},
        values=np.array([[0.1, 1e-17, 2.0], [1.0000000000000002, 0.0, -1e-11]]),
        engine="closed_form",
    )
    assert render_csv(grid) == (
        "# gravcat-coding v0.1.0 engine=closed_form fixed=T=0.7\n"
        "y\\x,0.0,0.5,1.0\n"
        "0.5,0.1,1e-17,2.0\n"
        "1.5,1.0000000000000002,0.0,-1e-11\n"
    )
    text = render_json(grid)
    assert '"x_values": [\n    0.0,\n    0.5,\n    1.0\n  ]' in text
    assert '"values": [\n    [\n      0.1,\n      1e-17,\n      2.0\n    ],' in text
    assert '      1.0000000000000002,\n      0.0,\n      -1e-11\n' in text


def test_writer_refuses_nan_cells():
    grid = SweepGrid(
        x_axis=AxisSpec("gamma", 0.0, 1.0, 2),
        y_axis=AxisSpec("omega", 0.5, 1.5, 2),
        fixed={"T": 0.7},
        values=np.array([[0.5, 0.4], [np.nan, 0.2]]),
        engine="closed_form",
    )
    with pytest.raises(InvalidStateError, match="nan"):
        render_csv(grid)
    with pytest.raises(InvalidStateError, match="nan"):
        render_json(grid)


def test_csv_fixed_values_in_canonical_order():
    grid = evaluate_sweep(
        AxisSpec("T", 0.1, 1.0, 2), AxisSpec("p", 0.0, 0.5, 2), {"omega": 3.0, "gamma": 1.5}
    )
    assert render_csv(grid).split("\n")[0] == (
        "# gravcat-coding v0.1.0 engine=closed_form fixed=omega=3.0,gamma=1.5"
    )


def test_renderers_are_deterministic():
    axis_args = (AxisSpec("gamma", 0.0, 1.0, 4), AxisSpec("omega", 0.5, 1.5, 3), {"T": 0.7})
    first = evaluate_sweep(*axis_args)
    second = evaluate_sweep(*axis_args)
    assert render_csv(first) == render_csv(second)
    assert render_json(first) == render_json(second)


def test_writer_rejects_out_of_range_cells():
    grid = evaluate_sweep(AxisSpec("gamma", 0.0, 1.0, 2), AxisSpec("omega", 0.5, 1.5, 2), {"T": 0.7})
    broken = SweepGrid(
        x_axis=grid.x_axis,
        y_axis=grid.y_axis,
        fixed=grid.fixed,
        values=np.array([[0.5, 2.5], [0.1, 0.2]]),
        engine=grid.engine,
    )
    with pytest.raises(InvalidStateError):
        render_csv(broken)
    with pytest.raises(InvalidStateError):
        render_json(broken)


def test_json_payload_schema():
    import json

    grid = evaluate_sweep(AxisSpec("gamma", 0.0, 1.0, 3), AxisSpec("omega", 0.5, 1.5, 2), {"T": 0.7})
    payload = json.loads(render_json(grid))
    assert payload["schema_version"] == 1
    assert payload["tool"] == "gravcat-coding"
    assert payload["engine"] == "closed_form"
    assert payload["x_axis"] == {"name": "gamma", "start": 0.0, "stop": 1.0, "count": 3}
    assert payload["fixed"] == {"T": 0.7}
    assert np.allclose(payload["values"], grid.values)


# ------------------------------------------------- shortest-digit kernel

def kernel_cells(values) -> list[str]:
    """The text the CSV kernel writes for each value, without its separator."""
    slots = float_text.repr_slots(np.asarray(values, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode()[1:] for row in slots]


def reference_csv(grid) -> str:
    """The CSV writer as one `repr` call per cell: the oracle for the kernel."""
    names = [name for name in ("omega", "gamma", "T", "p") if name in grid.fixed]
    fixed = ",".join(f"{name}={grid.fixed[name]!r}" for name in names)
    lines = [f"# gravcat-coding v{__version__} engine={grid.engine} fixed={fixed}"]
    lines.append("y\\x," + ",".join(map(repr, grid.x_axis.values().tolist())))
    for y_value, row in zip(grid.y_axis.values().tolist(), grid.values.tolist()):
        lines.append(repr(y_value) + "," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def reference_json(grid) -> str:
    """`render_json` as one `json.dumps` of the whole payload."""
    payload = json.loads(render_json(grid))
    payload["values"] = grid.values.tolist()
    return json.dumps(payload, indent=2) + "\n"


def _neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-4, 10.0,
    *(y for k in range(-1074, 1024, 7) for y in _neighbours(2.0**k)),
    *(y for k in range(-323, 309) for y in _neighbours(10.0**k)),
]


def rounding_ties(rng, count: int) -> np.ndarray:
    """Values in [1e-4, 10) whose k-digit scaling, k = 15, 16 or 17, ends in exactly .5."""
    ties = []
    for e in range(-4, 1):
        for k in (15, 16, 17):
            # v = u 2^(e - k) with u odd: v 10^(k - 1 - e) = u 5^(k - 1 - e) / 2
            lo, hi = int(10.0**e * 2.0 ** (k - e)), int(10.0 ** (e + 1) * 2.0 ** (k - e))
            ties.append((rng.integers(lo // 2, hi // 2, count) * 2 + 1) * 2.0 ** (e - k))
    return np.concatenate(ties)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_VALUES),
        min_size=1,
        max_size=64,
    ).map(lambda values: values + [-v for v in values])
)
def test_kernel_cells_equal_repr(values):
    assert kernel_cells(values) == [repr(v) for v in np.array(values).tolist()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_on_special_values_and_rounding_ties():
    rng = np.random.default_rng(3)
    values = np.concatenate([SPECIAL_VALUES, rounding_ties(rng, 200)])
    values = np.concatenate([values, -values])
    assert kernel_cells(values) == [repr(v) for v in values.tolist()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_on_seeded_capacity_range():
    values = np.random.default_rng(11).uniform(1e-4, 2.0, 200_000)
    assert kernel_cells(values) == [repr(v) for v in values.tolist()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_default_figures_render_as_the_repr_writer():
    for figure_id in FIGURES:
        grid = figure_grid(figure_id)
        assert render_csv(grid) == reference_csv(grid), figure_id
        assert render_json(grid) == reference_json(grid), figure_id


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_render_does_not_depend_on_chunk_size(monkeypatch):
    x_axis, y_axis = AxisSpec("T", 1e-4, 2.0, 37), AxisSpec("p", 0.0, 1.0, 23)
    grid = figure_grid("5a", x_axis=x_axis, y_axis=y_axis)
    expected = reference_csv(grid), reference_json(grid)
    for rows in (1, 7, 8192):
        monkeypatch.setattr(float_text, "CHUNK_CELLS", rows * 37)
        assert (render_csv(grid), render_json(grid)) == expected, rows


# ------------------------------------------------------------- figures

def test_figure_presets_match_their_captions():
    table = {
        "2a": ("gamma", "omega", {"T": 0.01}),
        "2b": ("gamma", "omega", {"T": 1.0}),
        "3a": ("T", "omega", {"gamma": 1.0}),
        "3b": ("T", "omega", {"gamma": 3.0}),
        "4a": ("T", "gamma", {"omega": 1.0}),
        "4b": ("T", "gamma", {"omega": 2.0}),
        "5a": ("T", "p", {"omega": 1.0, "gamma": 1.0}),
        "5b": ("T", "p", {"omega": 3.0, "gamma": 3.0}),
        "6a": ("gamma", "p", {"T": 0.01, "omega": 1.0}),
        "6b": ("omega", "p", {"T": 0.01, "gamma": 1.0}),
    }
    assert set(FIGURES) == set(table)
    for figure_id, (x, y, fixed) in table.items():
        preset = FIGURES[figure_id]
        assert (preset.x, preset.y, preset.fixed) == (x, y, fixed)


def test_figure_equals_manual_sweep():
    fig = figure_grid("2a")
    manual = evaluate_sweep(AxisSpec.default("gamma"), AxisSpec.default("omega"), {"T": 0.01})
    assert np.array_equal(fig.values, manual.values)
    assert render_csv(fig) == render_csv(manual)


def test_figure_accepts_axis_overrides():
    fig = figure_grid(
        "5a",
        x_axis=AxisSpec("T", 0.1, 1.0, 4),
        y_axis=AxisSpec("p", 0.0, 0.9, 3),
    )
    assert fig.values.shape == (3, 4)
    with pytest.raises(InvalidParameterError, match="axes"):
        figure_grid("5a", x_axis=AxisSpec("omega", 0.1, 1.0, 4))


def test_figure_unknown_id():
    with pytest.raises(InvalidParameterError, match="unknown figure id"):
        figure_grid("7z")


def test_figure_config_payload():
    fig = figure_grid("6b", x_axis=AxisSpec("omega", 0.1, 1.0, 3), y_axis=AxisSpec("p", 0.0, 0.5, 2))
    config = figure_config("6b", fig)
    assert config["figure"] == "6b"
    assert config["fixed"] == {"gamma": 1.0, "T": 0.01}
    assert config["x_axis"]["name"] == "omega"
    assert config["schema_version"] == 1
