"""Federated speculative decoding with compressed top-K uplinks.

A deterministic desk-scale simulator: a draft model proposes token blocks,
worker models score them, workers ship top-K compressed distributions to an
orchestrator that reconstructs, aggregates, verifies, and measures how much
the compression distorts the aggregate and the acceptance rate.
"""

from .aggregation import TopKProfile, WeightVector, aggregate, aggregate_compressed
from .compression import (
    MassSplit,
    Strategy,
    TopKPayload,
    decode_payload,
    encode_payload,
    mass_split,
    reconstruct,
    truncate_topk,
)
from .dist import (
    Distribution,
    l1_distance,
    sample,
    sample_from_uniform,
    softmax_with_temperature,
    tv_distance,
)
from .engine import (
    BlockRecord,
    SampleResult,
    SessionSettings,
    block_step_metrics,
    run_reference_sample,
    run_sample,
    sample_seed_for,
)
from .metrics import (
    StepMetrics,
    SweepRecord,
    check_bounds,
    instrument_position,
    sweep_aggregate,
    write_sweep_csv,
)
from .models import MarkovModel, SyntheticModel, TraceModel, read_trace, write_trace
from .specdec import (
    DraftBlock,
    PrefixState,
    VerificationOutcome,
    acceptance_rate,
    generate_draft,
    residual_distribution,
    verify_block,
)
from .transport import (
    InProcessPool,
    Kind,
    Message,
    TcpPool,
    WorkerConfig,
    WorkerCore,
    frame_decode,
    frame_encode,
    worker_serve,
)

__version__ = "0.1.0"
