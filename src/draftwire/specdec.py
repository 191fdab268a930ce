"""Draft/verify primitives for speculative decoding.

A draft model proposes a block of gamma tokens with their proposal
distributions q_1..q_gamma. The verifier walks the block in order against
the server-side target distributions p_1..p_gamma: draft token x_t is kept
with probability min(1, p_t(x_t) / q_t(x_t)); the first rejection resamples
from the residual max(0, p_t - q_t), normalized, and discards the rest of
the block. If every draft token survives, one bonus token is drawn from
p_{gamma+1}. Either way exactly one fresh token is emitted, so the output
marginal at each position is exactly p_t.

Orchestration (worker fan-out, aggregation, metrics) lives in the engine;
everything here is pure math over in-memory values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .dist import Distribution, sample
from .seeding import Prefix

RESIDUAL_DENOMINATOR_FLOOR = 1e-12


class DegenerateResidualError(ValueError):
    """p and q agree everywhere; the residual distribution is undefined."""


class InvalidDraftError(ValueError):
    """A draft token has zero probability under its own proposal."""


@dataclass(frozen=True)
class DraftBlock:
    """gamma draft tokens plus the proposal distribution behind each one."""

    tokens: tuple[int, ...]
    draft_dists: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.draft_dists) or not self.tokens:
            raise ValueError("need equal, non-zero counts of tokens and distributions")
        for t, d in zip(self.tokens, self.draft_dists):
            if not 0 <= t < d.vocab_size:
                raise ValueError(f"draft token {t} outside vocabulary")
            if d.probs[t] <= 0.0:
                raise InvalidDraftError(f"draft token {t} has zero proposal probability")

    @property
    def gamma(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of verifying one draft block.

    ``emitted_tokens`` is the accepted prefix plus exactly one extra token:
    the residual resample after a rejection, or the bonus draw after a full
    accept. ``rejection_step`` is the 0-based index of the first rejected
    draft position, present iff the block was not fully accepted.
    ``per_step_accept_prob`` holds min(1, p_t(x_t)/q_t(x_t)) for each
    position actually examined.
    """

    accepted_count: int
    emitted_tokens: tuple[int, ...]
    rejection_step: int | None
    per_step_accept_prob: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.emitted_tokens) != self.accepted_count + 1:
            raise ValueError("emitted_tokens must be the accepted prefix plus one token")
        examined = len(self.per_step_accept_prob)
        if self.rejection_step is None:
            if examined != self.accepted_count:
                raise ValueError("full acceptance must examine exactly the accepted steps")
        else:
            if self.rejection_step != self.accepted_count:
                raise ValueError("first rejection must follow the accepted prefix")
            if examined != self.accepted_count + 1:
                raise ValueError("examined steps must stop at the first rejection")


class ModelProvider(Protocol):
    """A next-token distribution conditioned on a token prefix."""

    def distribution(self, prefix: Prefix) -> Distribution: ...


def generate_draft(
    draft_model: ModelProvider,
    prefix: Prefix,
    gamma: int,
    rng: np.random.Generator,
) -> DraftBlock:
    """Autoregressively sample a gamma-token draft, keeping each q_t."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    tokens: list[int] = []
    dists: list[Distribution] = []
    for _ in range(gamma):
        d = draft_model.distribution(prefix)
        t = sample(d, rng)
        tokens.append(t)
        dists.append(d)
        prefix = prefix.extend((t,))
    return DraftBlock(tokens=tuple(tokens), draft_dists=tuple(dists))


def scored_prefixes(prefix: Prefix, draft: Sequence[int]) -> list[Prefix]:
    """The gamma + 1 prefixes a draft block is scored at: the committed
    prefix, then that prefix followed by each longer run of draft tokens."""
    out = [prefix]
    for t in draft:
        out.append(out[-1].extend((t,)))
    return out


def acceptance_rate(p_bar: Distribution, q: Distribution) -> float:
    """Expected acceptance probability: sum over x of min(p_bar(x), q(x)).

    Identically 1 - l1_distance(p_bar, q) / 2, one minus the total
    variation distance, for normalized inputs.
    """
    if p_bar.vocab_size != q.vocab_size:
        raise ValueError("distributions must share a vocabulary size")
    s = float(np.minimum(p_bar.probs, q.probs).sum())
    # Post-wire inputs may sum a hair above 1; keep the rate in [0, 1].
    return min(1.0, max(0.0, s))


def residual_distribution(p_bar: Distribution, q: Distribution) -> Distribution:
    """Normalized positive part of p_bar - q, used after a rejection."""
    if p_bar.vocab_size != q.vocab_size:
        raise ValueError("distributions must share a vocabulary size")
    surplus = np.subtract(p_bar.probs, q.probs)
    np.maximum(surplus, 0.0, out=surplus)
    denom = float(surplus.sum())
    if denom <= RESIDUAL_DENOMINATOR_FLOOR:
        raise DegenerateResidualError("distributions agree; residual mass is zero")
    surplus /= denom
    return Distribution.unchecked(surplus)


def verify_block(
    draft: DraftBlock,
    targets: Sequence[Distribution],
    rng: np.random.Generator,
) -> VerificationOutcome:
    """Accept/reject a draft block against gamma+1 target distributions.

    Reads ``targets[t]`` only at the positions it examines, each once, and
    ``targets[gamma]`` only when every draft token is accepted, so a
    sequence that builds each target when it is read builds no more than
    the block emits. Each target's vocabulary is checked when it is read.

    Consumes the rng in a fixed order: one uniform per examined step, then
    exactly one sampling draw for the trailing token. That schedule is part
    of the determinism contract and must not change.
    """
    gamma = draft.gamma
    if len(targets) != gamma + 1:
        raise ValueError(f"expected {gamma + 1} target distributions, got {len(targets)}")
    vocab_size = draft.draft_dists[0].vocab_size

    def target(t: int) -> Distribution:
        p_t = targets[t]
        if p_t.vocab_size != vocab_size:
            raise ValueError("target and draft vocabulary sizes differ")
        return p_t

    accept_probs: list[float] = []
    for t in range(gamma):
        x_t = draft.tokens[t]
        q_t = draft.draft_dists[t]
        p_t = target(t)
        q_x = float(q_t.probs[x_t])
        if q_x <= 0.0:
            raise InvalidDraftError(f"draft token {x_t} has zero proposal probability")
        ratio = min(1.0, float(p_t.probs[x_t]) / q_x)
        accept_probs.append(ratio)
        u = rng.random()
        if u < ratio:
            continue
        try:
            source = residual_distribution(p_t, q_t)
        except DegenerateResidualError:
            # Unreachable when ratio < 1 somewhere, but float ties happen.
            source = p_t
        fresh = sample(source, rng)
        return VerificationOutcome(
            accepted_count=t,
            emitted_tokens=tuple(draft.tokens[:t]) + (fresh,),
            rejection_step=t,
            per_step_accept_prob=tuple(accept_probs),
        )

    bonus = sample(target(gamma), rng)
    return VerificationOutcome(
        accepted_count=gamma,
        emitted_tokens=tuple(draft.tokens) + (bonus,),
        rejection_step=None,
        per_step_accept_prob=tuple(accept_probs),
    )
