"""Simultaneous multicast scheduling in the store-and-forward packet model.

A library, simulator, and CLI for scheduling sets of rooted multicast trees
over a shared network: near-optimal frame-based schedules from short path
decompositions, a recursive family of provably hard instances, and a
CONGEST-model simulation of the distributed decomposition."""

from .congest import (
    AuditReport,
    BudgetViolation,
    CongestNetwork,
    CongestTranscript,
    DistributedDecomposition,
    RoundLimitError,
    distributed_multicast,
    distributed_rank_decomposition,
    message_size_audit,
    run_congest,
    tree_offsets,
)
from .decomposition import (
    PathDecomposition,
    RankMap,
    ShortReport,
    compute_ranks,
    decomposition_to_json,
    heavy_path_decomposition,
    rank_decomposition,
    shorten,
    verify_short,
)
from .lowerbound import (
    ConstructionStats,
    LemmaReport,
    LowerBoundInstance,
    MarkovReport,
    build_lowerbound,
    check_lemmas,
    exhaustive_opt,
    interleave,
    interleavings,
    markov_delay_check,
    pad_to_n,
    predicted_edge_count,
)
from .model import (
    Graph,
    InstanceMetrics,
    MulticastInstance,
    MulticastTree,
    compute_metrics,
    gen_layered_instance,
    gen_random_instance,
    instance_from_json,
    instance_to_json,
    log2_ceil,
    norm_edge,
    validate_instance,
)
from .schedule import (
    DeliveryReport,
    Schedule,
    Send,
    Violation,
    knowledge_at,
    schedule_from_json,
    schedule_to_json,
    simulate,
)
from .schedulers import (
    FrameAssignment,
    FrameCongestionProfile,
    SeedSearchError,
    build_short_decompositions,
    deterministic_schedule,
    frame_congestion_profile,
    frame_multicast_schedule,
    frame_schedule_from_decomps,
    greedy_schedule,
    random_delay_schedule,
    unicast_frame_schedule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
