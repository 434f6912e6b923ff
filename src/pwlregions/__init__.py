"""Exact analysis of the linear regions of small piecewise-linear networks.

The package splits into layers that mirror how the objects depend on one
another: ``network`` (models, activation patterns, per-pattern affine
maps), ``bounds`` (closed-form counting formulas), ``regions`` (exact
enumeration and the grid oracle), ``constructions`` (witness networks
attaining the bounds), ``linmap`` (local affine maps of single units and
the identification probe), ``reports``/``serialize`` (deterministic
exports), ``acceptance`` (the criteria table), and ``cli``.
"""

from .network import (
    ACT_RECTIFIER,
    Activation,
    AffineMap,
    Layer,
    Network,
    NetworkFormatError,
    NetworkStructure,
    forward,
    load_network,
    maxout,
    maxout_structure,
    network_from_dict,
    network_to_dict,
    parameter_count,
    pattern_affine,
    pattern_at,
    pattern_code,
    pattern_matrix,
    rectifier_structure,
    save_network,
    structure_of,
)
from .bounds import (
    BoundReport,
    bound_report,
    deep_maxout_lower,
    deep_rectifier_lower,
    deep_rectifier_lower_refined,
    fold_counts,
    maxout_layer_bounds,
    rectifier_upper_bound,
    regions_per_parameter,
    shallow_max_regions,
)
from .regions import (
    EnumerationError,
    FeasibilityConfig,
    Region,
    RegionBudgetError,
    RegionSet,
    count_regions,
    enumerate_regions,
    exact_strictly_feasible,
    oracle_count_by_grid,
    region_polygons_2d,
)
from .constructions import (
    Construction,
    ConstructionError,
    SimulationPair,
    WitnessSpec,
    build_abs_net,
    build_catalan_layer,
    build_folding_rectifier_net,
    build_maxout_cones,
    build_maxout_parallel,
    build_rank2_folding_maxout,
    build_rank2_maxout_as_rectifier,
    build_sawtooth_group,
    build_shi_layer,
    identification_check,
    mixing_coefficients,
    sawtooth_network,
    sawtooth_rows,
    sawtooth_with_threshold,
)
from .linmap import (
    IdentificationError,
    IdentifiedPair,
    UnitPiece,
    boundary_clearance,
    enumerate_unit_pieces,
    find_identified_pair,
    finite_difference_gradient,
    unit_activation,
    unit_linear_map,
)
from .reports import (
    region_report,
    region_svg,
    render_region_report,
    write_polygon_csv,
)
from .acceptance import CriterionResult, format_table, run_all

__version__ = "0.1.0"
