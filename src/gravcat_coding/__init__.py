"""Dense-coding capacity of two-qubit gravitational-cat thermal states.

Closed-form capacities, an independent dense-matrix numeric engine that
cross-checks them, the weak-measurement post-selection protocol, and
parameter-sweep / verification tooling behind the ``gravcat-coding`` CLI.
"""

from .version import TOOL_NAME, __version__

from .linalg import (
    InvalidStateError,
    NonFiniteResultError,
    NotHermitianError,
    NumericalNoiseWarning,
    eigh,
    entropy_bits,
    matrix_function,
    require_hermitian,
)
from .thermal import (
    DegenerateGeometryError,
    GravcatGeometry,
    GravcatParams,
    InvalidParameterError,
    MIN_TEMPERATURE,
    OutOfRangeError,
    assemble_thermal_state,
    build_hamiltonian,
    check_domain,
    coupling_from_geometry,
    gibbs_numeric,
    thermal_closed_form,
)
from .coding import (
    ADVANTAGE_EPSILON,
    Advantage,
    CapacityReport,
    capacity_closed_form,
    capacity_numeric,
    classify_advantage,
    ensemble_average,
    ensemble_average_via_marginal,
)
from .closed_form import ZeroSuccessProbabilityError, chi_closed_form
from .weak_measurement import (
    PostSelectedState,
    apply_qwm,
    capacity_wm_closed_form,
    chi_numeric,
    golden_section_maximize,
    optimize_strength,
    optimize_strength_many,
    wm_state_closed_form,
)
from .rng import SplitMix64
from .sweep import (
    AxisSpec,
    DEFAULT_AXES,
    FIGURES,
    FigurePreset,
    SweepGrid,
    cell_capacity,
    evaluate_sweep,
    figure_config,
    figure_grid,
    render_csv,
    render_json,
)
from .verify import CHECKS, draw_sample, draw_samples, verification_report

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
    "NonFiniteResultError",
    "NotHermitianError",
    "NumericalNoiseWarning",
    "OutOfRangeError",
    "PostSelectedState",
    "SplitMix64",
    "SweepGrid",
    "TOOL_NAME",
    "ZeroSuccessProbabilityError",
    "__version__",
    "apply_qwm",
    "assemble_thermal_state",
    "build_hamiltonian",
    "capacity_closed_form",
    "capacity_numeric",
    "capacity_wm_closed_form",
    "cell_capacity",
    "check_domain",
    "chi_closed_form",
    "chi_numeric",
    "classify_advantage",
    "coupling_from_geometry",
    "draw_sample",
    "draw_samples",
    "eigh",
    "ensemble_average",
    "ensemble_average_via_marginal",
    "entropy_bits",
    "evaluate_sweep",
    "figure_config",
    "figure_grid",
    "gibbs_numeric",
    "golden_section_maximize",
    "matrix_function",
    "optimize_strength",
    "optimize_strength_many",
    "render_csv",
    "render_json",
    "require_hermitian",
    "thermal_closed_form",
    "verification_report",
    "wm_state_closed_form",
]
