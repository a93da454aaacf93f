"""Dense-coding capacity of two-qubit gravitational-cat thermal states.

Closed-form capacities, an independent dense-matrix numeric engine that
cross-checks them, the weak-measurement post-selection protocol, and
parameter-sweep / verification tooling behind the ``gravcat-coding`` CLI.

``import gravcat_coding`` imports only the version; the first read of any
other name imports the whole API at once, numpy included.
"""

from .version import TOOL_NAME, __version__

__all__ = [
    "ADVANTAGE_EPSILON",
    "Advantage",
    "AxisSpec",
    "CHECKS",
    "CapacityReport",
    "DEFAULT_AXES",
    "DegenerateGeometryError",
    "FIGURES",
    "FigurePreset",
    "GravcatGeometry",
    "GravcatParams",
    "InvalidParameterError",
    "InvalidStateError",
    "MIN_TEMPERATURE",
    "NotHermitianError",
    "NumericalNoiseWarning",
    "OutOfRangeError",
    "SplitMix64",
    "SweepGrid",
    "TOOL_NAME",
    "ZeroSuccessProbabilityError",
    "__version__",
    "apply_qwm",
    "build_hamiltonian",
    "capacity_numeric",
    "capacity_wm_closed_form",
    "cell_capacity",
    "check_domain",
    "chi_closed_form",
    "chi_numeric",
    "classify_advantage",
    "coupling_from_geometry",
    "draw_samples",
    "eigh",
    "entropy_bits",
    "evaluate_sweep",
    "figure_config",
    "figure_grid",
    "gibbs_numeric",
    "optimize_strength",
    "optimize_strength_many",
    "render_csv",
    "render_json",
    "require_hermitian",
    "verification_report",
]


def _api() -> dict:
    """Every name of the public API, imported from its module."""
    from .linalg import (
        InvalidStateError,
        NotHermitianError,
        NumericalNoiseWarning,
        eigh,
        entropy_bits,
        require_hermitian,
    )
    from .thermal import (
        DegenerateGeometryError,
        GravcatGeometry,
        GravcatParams,
        InvalidParameterError,
        MIN_TEMPERATURE,
        OutOfRangeError,
        build_hamiltonian,
        check_domain,
        coupling_from_geometry,
        gibbs_numeric,
    )
    from .coding import (
        ADVANTAGE_EPSILON,
        Advantage,
        CapacityReport,
        capacity_numeric,
        classify_advantage,
    )
    from .closed_form import ZeroSuccessProbabilityError, chi_closed_form
    from .numeric import chi_numeric
    from .weak_measurement import (
        apply_qwm,
        capacity_wm_closed_form,
        optimize_strength,
        optimize_strength_many,
    )
    from .rng import SplitMix64
    from .presets import FIGURES, FigurePreset
    from .sweep import (
        AxisSpec,
        DEFAULT_AXES,
        SweepGrid,
        cell_capacity,
        evaluate_sweep,
        figure_config,
        figure_grid,
        render_csv,
        render_json,
    )
    from .verify import CHECKS, draw_samples, verification_report
    return locals()


def __getattr__(name: str):
    """Load the whole API on the first read of a name the package lacks (PEP 562).

    One load imports every module the API comes from, so any name read after
    it, a submodule's included, finds what a fully imported package would
    hold; a name the package still lacks then raises ``AttributeError``.
    """
    global __getattr__
    del __getattr__  # a read during or after the load falls through to the module dict
    globals().update(_api())
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
