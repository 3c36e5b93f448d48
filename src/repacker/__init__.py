"""Feasibility engine and analysis toolkit for broadcast-spectrum repacking."""

from .instance import (
    US_UNIVERSE,
    Affiliation,
    ChannelAssignment,
    ChannelPlan,
    ChannelUniverse,
    ConstraintKind,
    DomainConstraint,
    Instance,
    InstanceError,
    InterferenceConstraint,
    NETWORKS,
    RepackProblem,
    Station,
    Violation,
    derive_available_channels,
    validate_assignment,
)
from .instance_io import (
    instance_digest,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from .synthetic import generate_synthetic, planted_clique_ids
from .encoder import (
    CnfFormula,
    EncodingError,
    VarMap,
    VarPool,
    at_most_true,
    decode,
    dimacs_text,
    encode,
    export_dimacs,
    parse_dimacs_result,
)
from .solver import (
    EmbeddedSolver,
    ExternalSolver,
    SolveOutcome,
    SolveStats,
    Verdict,
    solve,
)
from .driver import (
    FeasibilityResult,
    MinSearchResult,
    Sample,
    SampleSet,
    SamplingError,
    SearchError,
    check_feasibility,
    min_dma_clearings_isolated,
    min_dmas_with_clearing,
    min_nationwide_clearings,
    sample_solutions,
)
from .participation import (
    ModelKind,
    ModelSpec,
    ParticipationVector,
    draw_variates,
    revenue_probabilities,
    sample,
    sample_from_variates,
)
from .cliques import (
    AttributionResult,
    BlockingReport,
    CliqueCatalog,
    attribution_fraction,
    blocking_check,
    enumerate_cliques_greedy,
)
from .montecarlo import (
    BACKEND_CLIQUE_ONLY,
    BACKEND_CLIQUE_THEN_SAT,
    BACKEND_SAT,
    SuccessEstimate,
    TrialReport,
    estimate_success,
    mean_z,
    shared_randomness_sweep,
)
from . import analytics

__version__ = "0.1.0"
