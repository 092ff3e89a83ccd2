"""Exact-rational folding, cluster bases, and correlation-inequality checks
on finite product probability spaces."""

from .association import (
    AssociationReport,
    ExchangeableLevels,
    PipelineReport,
    exchangeable_from_levels,
    fkg_theorem_pipeline,
    is_fkg,
    is_fkg_via_foldings,
    is_na,
    is_nfkg,
    is_pa,
    is_snfkg,
    is_ulc,
    levels_from_measure,
    perturb,
    snfkg_limit_rcr,
)
from .errors import (
    AllZero,
    CapExceeded,
    FoldingUndefined,
    InvalidParams,
    InvariantViolated,
    NoCompatiblePair,
    NonBinaryAlphabet,
    PreconditionFailed,
    RcfoldError,
    SpaceMismatch,
)
from .folding import (
    BranchLimit,
    FoldPath,
    FoldSpec,
    branch_limit,
    check_convergence_bound,
    enumerate_essential_prefixes,
    essentialize,
    fold,
    fold_path,
    fold_window,
)
from .measures import (
    Config,
    Event,
    Measure,
    SiteSpace,
    cylinder,
    enumerate_upsets,
    normalize,
    sup_distance,
)
from .occurrence import (
    SelectionRule,
    box,
    box_with_rule,
    check_disjoint_cluster_bound,
    check_folding_hypothesis_bound,
    full_rule,
    increasing_decreasing_rule,
    increasing_only_rule,
    induced_rule,
    rule_by_name,
)
from .rcr import (
    BondStateAssignment,
    HyperbondStructure,
    IsingSpec,
    RcrBase,
    check_sublattice,
    clusters,
    compatible,
    complete_pairing_base,
    construct_uniform_symmetric_rcr,
    induced_measure,
    ising_build,
    ising_measure,
    predicates,
    verify_rcr,
)
from .suites import RunConfig, SUITES, run_suite

__version__ = "0.1.0"
