"""Budgeted second-price keyword auctions: exact semantics, algorithms, oracles.

Keywords arrive in a fixed order and each is assigned to an ordered pair
of bidders (or skipped); the first bidder pays the second's effective
bid, where the effective bid is the original bid capped at remaining
budget.  The all-ones special case is second-price matching.  The
package provides the exact executor, offline and online algorithms,
brute-force optimal oracles with replayable witnesses, hardness
gadgets, instance generators, and a seeded experiment harness.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AuctionError,
    EmptyStream,
    InfeasibleTrace,
    InvalidParams,
    NoPositiveBids,
    NonDeterministicPolicy,
    NotAPartition,
    OrderingViolation,
    PolicyViolation,
    SameBidder,
    TooLarge,
    UnknownId,
    UnknownSuite,
    UnresolvableSecondBidder,
)
from .model import (
    SKIP,
    Action,
    Assign,
    AuctionTrace,
    BudgetState,
    Instance,
    Skip,
    TraceStep,
    ValidationReport,
    effective_bid,
    execute,
    r_min,
    unit_instance,
    validate,
)
from .oracles import (
    DEFAULT_NODE_LIMIT,
    Matching,
    OptResult,
    SearchStats,
    first_price_value,
    max_matching,
    opt_1paa,
    opt_2paa,
    opt_2pm,
)
from .offline import (
    reverse_match,
    top_c,
    top_c_bound,
)
from .online import (
    LeftKCopy,
    OnlinePolicy,
    first_available,
    greedy_2pm,
    left_k_copy,
    ranking_1p,
    ranking_simulate,
    run_online,
    skip_all,
)
from .reductions import (
    PartitionGadget,
    VcGadget,
    extract_vertex_cover,
    normalize_first_price,
    partition_to_2paa,
    random_construction,
    resolve_second_bidder,
    to_first_price_bids,
    vc_to_2pm,
    yes_strategy,
)
from .generators import (
    AdversaryTranscript,
    ChainSample,
    adversary_vs_policy,
    gap_instance,
    gap_witness_actions,
    perfect_matchable_2pm,
    random_2pm,
    random_2paa,
    sample_chain,
)
from .harness import (
    SUITES,
    ExperimentReport,
    TrialRecord,
    ranking_sum_bound,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"

# every public name bound above, in binding order; submodules are not exported
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
