"""Generation driver: one speculative decode loop, two ways to score a block.

One sample = one seeded generation. Per block the loop drafts gamma
tokens, scores them, verifies the block, and commits the emitted tokens.
The loop (``_decode``) owns the RNG streams, the prefix, the EOS and
max_tokens stop rules, the block records and the counters; its two callers
differ only in the scorer and the commit they pass it:

* ``run_sample`` sends the draft and the hash of the committed prefix to a
  worker pool, which checks each worker's prefix-mirror checksum against
  it; it aggregates the decoded top-K payloads position by position, and
  queues the prompt and each block's committed tokens on the pool, which
  sends them to the worker mirrors with the next draft;
* ``run_reference_sample`` is the uncompressed baseline: it queries the
  worker models directly and aggregates their dense float32-rounded
  vectors, never touching the top-K/codec machinery. At k = |V| the
  compressed path must reproduce it byte for byte.

RNG discipline (the determinism contract): a sample owns two streams keyed
by (sample seed, role) - one consumed only by draft sampling, one only by
verification (a uniform per examined step, then one sampling draw). Worker
scoring consumes no randomness at all, so transport mode and completion
order cannot change the transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .aggregation import TopKProfile, WeightVector, aggregate, aggregate_compressed
from .compression import Strategy
from .dist import Distribution
from .metrics import ShadowBlock, StepMetrics, instrument_position, score_block
from .seeding import MASK64, ROLE_DRAFT_SAMPLING, ROLE_VERIFICATION, stable_prefix_hash, stream
from .specdec import ModelProvider, PrefixState, generate_draft, verify_block
from .transport import WorkerConfig, WorkerFailureError, WorkerPool


@dataclass(frozen=True)
class SessionSettings:
    """Static shape of a generation run, independent of the seed."""

    vocab_size: int
    gamma: int
    strategy: Strategy
    weights: WeightVector
    k_profile: TopKProfile
    max_tokens: int
    prompt: tuple[int, ...] = (0,)
    eos: int | None = None

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if len(self.weights) != len(self.k_profile):
            raise ValueError("weights and k profile must cover the same workers")
        if not self.prompt:
            raise ValueError("prompt must contain at least one token")
        for t in self.prompt:
            if not 0 <= t < self.vocab_size:
                raise ValueError(f"prompt token {t} outside vocabulary")

    @property
    def m(self) -> int:
        return len(self.weights)

    def worker_configs(self, sample_seed: int) -> list[WorkerConfig]:
        return [
            WorkerConfig(
                vocab_size=self.vocab_size,
                k=self.k_profile[i],
                gamma=self.gamma,
                seed_material=sample_seed & MASK64,
            )
            for i in range(self.m)
        ]


@dataclass(frozen=True)
class BlockRecord:
    """Instrumented shadow data for one draft block.

    ``worker_dists[i][t]`` is worker i's exact float64 distribution at
    scored position t (t = gamma is the bonus position), captured before
    truncation and the 32-bit wire.
    """

    draft_tokens: tuple[int, ...]
    q_dists: tuple[Distribution, ...]
    worker_dists: tuple[tuple[Distribution, ...], ...]


@dataclass(frozen=True)
class SampleResult:
    tokens: tuple[int, ...]  # committed output, prompt excluded
    blocks: int
    drafted: int
    accepted: int
    uplink_bytes: int
    records: tuple[BlockRecord, ...]


def sample_seed_for(seed: int, sample_index: int) -> int:
    return (seed + sample_index) & MASK64


# What a block scorer returns: the gamma + 1 aggregated targets, the exact
# worker distributions behind them (None: nothing to record) and the
# block's uplink bytes.
_BlockScores = tuple[list[Distribution], Sequence[Sequence[Distribution]] | None, int]


def _decode(
    draft_model: ModelProvider,
    settings: SessionSettings,
    sample_seed: int,
    score: Callable[[tuple[int, ...], tuple[int, ...]], _BlockScores],
    commit: Callable[[tuple[int, ...]], None],
) -> SampleResult:
    """The speculative decode loop that both paths share.

    Per block: draft gamma tokens, ``score`` them against the committed
    prefix, verify, cut the emission at EOS / max_tokens, extend the prefix
    and hand the committed tokens to ``commit``. A block is recorded when
    ``score`` returns the worker distributions behind its targets.
    """
    draft_rng = stream(sample_seed, ROLE_DRAFT_SAMPLING)
    verify_rng = stream(sample_seed, ROLE_VERIFICATION)

    prefix = PrefixState(settings.prompt)
    emitted: list[int] = []
    records: list[BlockRecord] = []
    blocks = accepted = uplink = 0

    while True:
        draft = generate_draft(draft_model, prefix, settings.gamma, draft_rng)
        p_bars, worker_dists, block_uplink = score(prefix.tokens, draft.tokens)
        outcome = verify_block(draft, p_bars, verify_rng)
        blocks += 1
        accepted += outcome.accepted_count
        uplink += block_uplink
        if worker_dists is not None:
            records.append(
                BlockRecord(
                    draft_tokens=draft.tokens,
                    q_dists=draft.draft_dists,
                    worker_dists=tuple(tuple(d) for d in worker_dists),
                )
            )

        committed = list(outcome.emitted_tokens)
        done = False
        if settings.eos is not None and settings.eos in committed:
            committed = committed[: committed.index(settings.eos) + 1]
            done = True
        room = settings.max_tokens - len(emitted)
        if len(committed) >= room:
            committed = committed[:room]
            done = True
        prefix.extend(committed)
        emitted.extend(committed)
        commit(tuple(committed))
        if done:
            return SampleResult(
                tokens=tuple(emitted),
                blocks=blocks,
                drafted=blocks * settings.gamma,
                accepted=accepted,
                uplink_bytes=uplink,
                records=tuple(records),
            )


def run_sample(
    draft_model: ModelProvider,
    pool: WorkerPool,
    settings: SessionSettings,
    sample_seed: int,
    *,
    instrumented: bool = False,
) -> SampleResult:
    """One seeded generation through a worker pool."""
    pool.configure(settings.worker_configs(sample_seed))
    pool.commit(settings.prompt)

    def score(prefix: tuple[int, ...], draft: tuple[int, ...]) -> _BlockScores:
        result = pool.score_block(stable_prefix_hash(prefix), draft)
        if instrumented and result.shadows is None:
            raise WorkerFailureError("pool does not expose shadow distributions")
        p_bars = [
            aggregate_compressed(
                [result.payloads[i][t] for i in range(settings.m)],
                settings.weights,
                settings.strategy,
            )
            for t in range(settings.gamma + 1)
        ]
        return p_bars, result.shadows if instrumented else None, sum(result.uplink_bytes)

    return _decode(draft_model, settings, sample_seed, score, pool.commit)


def run_reference_sample(
    draft_model: ModelProvider,
    worker_models: Sequence[ModelProvider],
    settings: SessionSettings,
    sample_seed: int,
) -> SampleResult:
    """Uncompressed baseline: dense f32 uplink, no top-K, no codec.

    Runs ``run_sample``'s loop with a dense scorer, so a lossless k profile
    must reproduce its transcript bitwise. The recorded shadows feed
    offline sweeps and trace files.
    """
    if len(worker_models) != settings.m:
        raise ValueError("one worker model per weight required")

    def score(prefix: tuple[int, ...], draft: tuple[int, ...]) -> _BlockScores:
        worker_dists = [
            [model.distribution(prefix + draft[:t]) for t in range(settings.gamma + 1)]
            for model in worker_models
        ]
        p_bars = [
            aggregate(
                [
                    Distribution.unchecked(
                        worker_dists[i][t].probs.astype(np.float32).astype(np.float64)
                    )
                    for i in range(settings.m)
                ],
                settings.weights,
            )
            for t in range(settings.gamma + 1)
        ]
        return p_bars, worker_dists, 0

    return _decode(draft_model, settings, sample_seed, score, lambda committed: None)


class RecordCache:
    """What ``block_step_metrics`` keeps of one record between k profiles:
    its ``ShadowBlock``, built by the first call."""

    __slots__ = ("shadows",)

    def __init__(self) -> None:
        self.shadows: ShadowBlock | None = None


def block_step_metrics(
    record: BlockRecord,
    weights: WeightVector,
    k_profile: TopKProfile,
    *,
    cache: RecordCache | None = None,
) -> list[StepMetrics]:
    """Score every position of a recorded block at the given k profile.

    Draft positions carry acceptance metrics; the bonus position only has
    distortion metrics. Pure float64 math over the shadows, so the same
    record can be re-scored for any number of profiles: ``score_block``
    scores all positions in one array pass, then ``instrument_position``
    builds each position's record.

    ``cache``, when given, keeps the record's ``ShadowBlock`` (its stacked
    shadows, exact aggregates and widest payloads) from one call to the
    next. Pass one new cache per record and score its profiles widest
    first, and each shadow is stacked and truncated once; the narrower
    profiles slice its payloads.
    """
    shadows = None if cache is None else cache.shadows
    if shadows is None:
        shadows = ShadowBlock(record.worker_dists, record.q_dists, weights)
        if cache is not None:
            cache.shadows = shadows
    scores = score_block(shadows, k_profile)
    return [instrument_position(scores, t) for t in range(len(record.draft_tokens) + 1)]
