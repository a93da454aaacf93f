"""Dense-coding capacity of two-qubit gravitational-cat thermal states.

Closed-form capacities, an independent dense-matrix numeric engine that
cross-checks them, the weak-measurement post-selection protocol, and
parameter-sweep / verification tooling behind the ``gravcat-coding`` CLI.

``import gravcat_coding`` imports only the version; the first read of any
other name imports every module of ``_API`` at once, numpy included, and
binds the names listed for it.  Each name is listed once, under the module
that defines it, so ``__all__`` is the version's two names and the table's.
"""

from .version import TOOL_NAME, __version__

_API = {
    "linalg": (
        "InvalidStateError", "NotHermitianError", "NumericalNoiseWarning", "eigh",
        "entropy_bits", "require_hermitian",
    ),
    "thermal": (
        "DegenerateGeometryError", "GravcatGeometry", "GravcatParams", "InvalidParameterError",
        "MIN_TEMPERATURE", "OutOfRangeError", "build_hamiltonian", "check_domain",
        "coupling_from_geometry", "gibbs_numeric",
    ),
    "coding": (
        "ADVANTAGE_EPSILON", "Advantage", "CapacityReport", "capacity_numeric",
        "classify_advantage",
    ),
    "closed_form": ("ZeroSuccessProbabilityError", "chi_closed_form"),
    "numeric": ("chi_numeric",),
    "weak_measurement": (
        "apply_qwm", "capacity_wm_closed_form", "optimize_strength", "optimize_strength_many",
    ),
    "rng": ("SplitMix64",),
    "presets": ("FIGURES", "FigurePreset"),
    "sweep": (
        "AxisSpec", "DEFAULT_AXES", "SweepGrid", "cell_capacity", "evaluate_sweep",
        "figure_config", "figure_grid", "render_csv", "render_json",
    ),
    "verify": ("CHECKS", "draw_samples", "verification_report"),
}

__all__ = sorted(["TOOL_NAME", "__version__", *(n for names in _API.values() for n in names)])


def __getattr__(name: str):
    """Load the whole API on the first read of a name the package lacks (PEP 562).

    One load imports every module the API comes from, so any name read after
    it, a submodule's included, finds what a fully imported package would
    hold; a name the package still lacks then raises ``AttributeError``.
    """
    global __getattr__
    del __getattr__  # a read during or after the load falls through to the module dict
    from importlib import import_module

    for module_name, exported in _API.items():
        module = import_module(f"{__name__}.{module_name}")
        globals().update({attr: getattr(module, attr) for attr in exported})
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
