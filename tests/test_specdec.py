import numpy as np
import pytest
from hypothesis import given

from conftest import distribution_pairs, random_distribution
from draftwire.dist import Distribution, l1_distance
from draftwire.models import MarkovModel
from draftwire.seeding import Prefix
from draftwire.specdec import (
    DegenerateResidualError,
    DraftBlock,
    InvalidDraftError,
    VerificationOutcome,
    acceptance_rate,
    generate_draft,
    residual_distribution,
    verify_block,
)


def emission_marginal_by_enumeration(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exact single-step emit-token marginal, derived from the procedure alone.

    Draft x ~ q, keep it with probability min(1, p(x)/q(x)); otherwise emit a
    sample from the normalized positive part of (p - q). Pure numpy on raw
    arrays; shares nothing with the package implementation on purpose.
    """
    # Divide only where p < q; elsewhere the clamped ratio is 1 anyway. This
    # sidesteps overflow when q is subnormal.
    accept = np.ones_like(p)
    shy = p < q
    accept[shy] = p[shy] / q[shy]
    marginal = q * accept
    reject_mass = float(np.sum(q * (1.0 - accept)))
    surplus = np.maximum(p - q, 0.0)
    denom = float(surplus.sum())
    if denom > 0.0:
        marginal = marginal + reject_mass * (surplus / denom)
    elif reject_mass > 0.0:
        marginal = marginal + reject_mass * p
    return marginal


class ScriptedUniforms:
    """Replays a fixed list of floats through the ``random()`` interface."""

    def __init__(self, values):
        self._values = list(values)
        self.consumed = 0

    def random(self) -> float:
        self.consumed += 1
        return self._values.pop(0)


class TestEmissionOracle:
    def test_identical_distributions(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        assert np.allclose(emission_marginal_by_enumeration(p.copy(), p), p, atol=1e-15)

    def test_hand_case(self):
        q = np.array([0.5, 0.5])
        p = np.array([0.2, 0.8])
        # accept mass: [0.2, 0.5]; reject mass 0.3; surplus [0, 0.3] -> all to 1
        out = emission_marginal_by_enumeration(q, p)
        assert out == pytest.approx([0.2, 0.8], abs=1e-15)

    def test_marginal_recovers_target(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            q = random_distribution(rng, 8).probs
            p = random_distribution(rng, 8, sparsity=0.3).probs
            out = emission_marginal_by_enumeration(q, p)
            assert np.max(np.abs(out - p)) < 1e-9

    @given(distribution_pairs(min_size=2, max_size=12))
    def test_marginal_recovers_target_property(self, pair):
        q, p = pair
        out = emission_marginal_by_enumeration(q.probs, p.probs)
        assert np.max(np.abs(out - p.probs)) < 1e-9


class TestAcceptanceRate:
    def test_identical_is_one(self):
        d = Distribution([0.4, 0.6])
        assert acceptance_rate(d, d) == 1.0

    def test_disjoint_is_zero(self):
        a = Distribution([1.0, 0.0])
        b = Distribution([0.0, 1.0])
        assert acceptance_rate(a, b) == 0.0

    def test_hand_value(self):
        p = Distribution([0.5, 0.3, 0.15, 0.05])
        q = Distribution([0.4, 0.4, 0.1, 0.1])
        assert acceptance_rate(p, q) == pytest.approx(0.85, abs=1e-15)

    def test_complements_tv(self):
        rng = np.random.default_rng(51)
        for _ in range(500):
            p = random_distribution(rng, 16, sparsity=0.4)
            q = random_distribution(rng, 16)
            assert abs(acceptance_rate(p, q) - (1.0 - l1_distance(p, q) / 2.0)) < 1e-12

    def test_vocab_mismatch(self):
        with pytest.raises(ValueError):
            acceptance_rate(Distribution([0.5, 0.5]), Distribution([0.4, 0.3, 0.3]))


class TestResidual:
    def test_hand_value(self):
        p = Distribution([0.4, 0.1, 0.3, 0.2])
        q = Distribution([0.2, 0.3, 0.2, 0.3])
        r = residual_distribution(p, q)
        assert r.probs == pytest.approx([2 / 3, 0.0, 1 / 3, 0.0], abs=1e-15)

    def test_point_surplus(self):
        r = residual_distribution(Distribution([1.0, 0.0]), Distribution([0.5, 0.5]))
        assert list(r.probs) == [1.0, 0.0]

    def test_degenerate(self):
        d = Distribution([0.5, 0.5])
        with pytest.raises(DegenerateResidualError):
            residual_distribution(d, d)

    def test_zero_where_q_dominates(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            p = random_distribution(rng, 10)
            q = random_distribution(rng, 10)
            if np.max(np.abs(p.probs - q.probs)) < 1e-12:
                continue
            r = residual_distribution(p, q)
            assert np.all(r.probs[p.probs <= q.probs] == 0.0)
            assert abs(r.probs.sum() - 1.0) < 1e-9


class TestDraftBlock:
    def test_gamma(self):
        q = Distribution([0.5, 0.5])
        block = DraftBlock(tokens=(0, 1), draft_dists=(q, q))
        assert block.gamma == 2

    def test_count_mismatch(self):
        q = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            DraftBlock(tokens=(0,), draft_dists=(q, q))

    def test_empty(self):
        with pytest.raises(ValueError):
            DraftBlock(tokens=(), draft_dists=())

    def test_token_out_of_range(self):
        q = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            DraftBlock(tokens=(2,), draft_dists=(q,))

    def test_zero_proposal_probability(self):
        q = Distribution([1.0, 0.0])
        with pytest.raises(InvalidDraftError):
            DraftBlock(tokens=(1,), draft_dists=(q,))


class TestVerificationOutcomeInvariants:
    def test_emitted_length(self):
        with pytest.raises(ValueError):
            VerificationOutcome(accepted_count=1, emitted_tokens=(3,),
                                rejection_step=None, per_step_accept_prob=(1.0,))

    def test_full_accept_examined_count(self):
        with pytest.raises(ValueError):
            VerificationOutcome(accepted_count=1, emitted_tokens=(3, 4),
                                rejection_step=None, per_step_accept_prob=(1.0, 1.0))

    def test_rejection_step_position(self):
        with pytest.raises(ValueError):
            VerificationOutcome(accepted_count=1, emitted_tokens=(3, 4),
                                rejection_step=0, per_step_accept_prob=(0.5, 0.5))

    def test_valid_shapes(self):
        VerificationOutcome(accepted_count=2, emitted_tokens=(1, 2, 3),
                            rejection_step=None, per_step_accept_prob=(1.0, 0.9))
        VerificationOutcome(accepted_count=1, emitted_tokens=(1, 2),
                            rejection_step=1, per_step_accept_prob=(1.0, 0.2))


class TestVerifyForcedUniforms:
    """Single-step accept/reject with pinned uniforms, checked by hand.

    All probabilities are dyadic so every ratio below is exact in binary.
    """

    Q = Distribution([0.5, 0.25, 0.125, 0.125])
    P = Distribution([0.25, 0.25, 0.25, 0.25])  # ratio at token 0: 0.25/0.5 = 0.5

    def block(self):
        return DraftBlock(tokens=(0,), draft_dists=(self.Q,))

    def test_uniform_below_ratio_accepts(self):
        rng = ScriptedUniforms([0.3, 0.0])  # accept, then bonus draw
        out = verify_block(self.block(), [self.P, self.P], rng)
        assert out.accepted_count == 1
        assert out.rejection_step is None
        assert out.per_step_accept_prob == (0.5,)
        assert out.emitted_tokens[0] == 0
        assert rng.consumed == 2

    def test_uniform_above_ratio_rejects(self):
        rng = ScriptedUniforms([0.7, 0.0])  # reject, then residual draw
        out = verify_block(self.block(), [self.P, self.P], rng)
        assert out.accepted_count == 0
        assert out.rejection_step == 0
        assert out.per_step_accept_prob == (0.5,)
        # residual surplus: max(0, P-Q) = [0, 0, .125, .125] -> r = [0,0,.5,.5]
        assert out.emitted_tokens == (2,)
        assert rng.consumed == 2

    def test_rejection_resample_upper_half(self):
        rng = ScriptedUniforms([0.7, 0.6])
        out = verify_block(self.block(), [self.P, self.P], rng)
        assert out.emitted_tokens == (3,)

    def test_boundary_uniform_equal_to_ratio_rejects(self):
        rng = ScriptedUniforms([0.5, 0.0])  # u == ratio: strict `<` fails
        out = verify_block(self.block(), [self.P, self.P], rng)
        assert out.rejection_step == 0

    def test_identical_target_accepts_everything(self):
        q = Distribution([0.25, 0.25, 0.25, 0.25])
        block = DraftBlock(tokens=(1, 2, 3), draft_dists=(q, q, q))
        rng = ScriptedUniforms([0.999, 0.999, 0.999, 0.6])
        out = verify_block(block, [q, q, q, q], rng)
        assert out.accepted_count == 3
        assert out.rejection_step is None
        assert out.per_step_accept_prob == (1.0, 1.0, 1.0)
        assert out.emitted_tokens[:3] == (1, 2, 3)
        assert out.emitted_tokens[3] == 2  # bonus: u=0.6 under uniform cdf
        assert rng.consumed == 4

    def test_stops_at_first_rejection(self):
        q = Distribution([0.5, 0.5])
        p_match = Distribution([0.5, 0.5])
        p_bad = Distribution([0.1, 0.9])  # token 0 ratio: 0.2
        block = DraftBlock(tokens=(0, 0, 0), draft_dists=(q, q, q))
        rng = ScriptedUniforms([0.1, 0.9, 0.0])
        out = verify_block(block, [p_match, p_bad, p_match, p_match], rng)
        assert out.accepted_count == 1
        assert out.rejection_step == 1
        assert out.emitted_tokens == (0, 1)  # residual of (p_bad - q) is token 1
        assert rng.consumed == 3  # later positions never touched

    def test_gamma_mismatch(self):
        with pytest.raises(ValueError):
            verify_block(self.block(), [self.P], ScriptedUniforms([0.1]))

    def test_zero_proposal_at_verify(self):
        # Bypass DraftBlock's own check to prove the verifier re-validates.
        q = Distribution([0.5, 0.5])
        bad_q = Distribution.unchecked(np.array([1.0, 0.0]))
        bad_block = DraftBlock.__new__(DraftBlock)
        object.__setattr__(bad_block, "tokens", (1,))
        object.__setattr__(bad_block, "draft_dists", (bad_q,))
        with pytest.raises(InvalidDraftError):
            verify_block(bad_block, [q, q], ScriptedUniforms([0.1, 0.1]))


class RecordingTargets:
    """gamma + 1 targets that record which positions are read; position t
    is built by ``make(t)`` at its read."""

    def __init__(self, count, make):
        self.count = count
        self.make = make
        self.read = []

    def __len__(self):
        return self.count

    def __getitem__(self, t):
        self.read.append(t)
        return self.make(t)


class TestVerifyReadsTargetsOnDemand:
    """Verification reads each examined position's target once, and the
    bonus target only after a full acceptance."""

    Q = Distribution([0.5, 0.5])
    GAMMA = 3

    def block(self):
        return DraftBlock(tokens=(0,) * self.GAMMA, draft_dists=(self.Q,) * self.GAMMA)

    def targets(self, p_at=None):
        return RecordingTargets(self.GAMMA + 1, p_at or (lambda t: Distribution([0.25, 0.75])))

    def test_rejection_at_one_reads_targets_zero_and_one(self):
        targets = self.targets()
        rng = ScriptedUniforms([0.1, 0.9, 0.0])  # ratio 0.5: accept, reject, residual
        out = verify_block(self.block(), targets, rng)
        assert out.rejection_step == 1
        assert targets.read == [0, 1]
        assert rng.consumed == 3

    def test_full_acceptance_reads_every_target(self):
        targets = self.targets()
        rng = ScriptedUniforms([0.1, 0.2, 0.3, 0.0])  # three accepts, then the bonus
        out = verify_block(self.block(), targets, rng)
        assert out.rejection_step is None
        assert targets.read == [0, 1, 2, 3]
        assert rng.consumed == 4

    def test_vocabulary_mismatch_raises_at_a_read_position(self):
        wide = Distribution([0.25, 0.25, 0.25, 0.25])
        targets = self.targets(lambda t: wide if t == 1 else Distribution([0.25, 0.75]))
        with pytest.raises(ValueError, match="vocabulary sizes differ"):
            verify_block(self.block(), targets, ScriptedUniforms([0.1, 0.1]))
        assert targets.read == [0, 1]

    def test_vocabulary_mismatch_at_an_unread_position_is_never_built(self):
        wide = Distribution([0.25, 0.25, 0.25, 0.25])
        targets = self.targets(lambda t: wide if t >= 2 else Distribution([0.25, 0.75]))
        out = verify_block(self.block(), targets, ScriptedUniforms([0.1, 0.9, 0.0]))
        assert out.rejection_step == 1
        assert targets.read == [0, 1]


class TestMonotoneCoupling:
    def test_raising_target_never_flips_accept_to_reject(self):
        rng = np.random.default_rng(53)
        flips = 0
        for _ in range(500):
            q = random_distribution(rng, 6)
            p = random_distribution(rng, 6)
            x = int(rng.integers(0, 6))
            if q.probs[x] <= 0.0:
                continue
            u = float(rng.random())
            boosted = p.probs + 0.2 * np.eye(6)[x]
            p_up = Distribution(boosted / boosted.sum())
            block = DraftBlock(tokens=(x,), draft_dists=(q,))
            base = verify_block(block, [p, p], ScriptedUniforms([u, 0.5]))
            up = verify_block(block, [p_up, p_up], ScriptedUniforms([u, 0.5]))
            if base.rejection_step is None and up.rejection_step is not None:
                flips += 1
        assert flips == 0


class TestGenerateDraft:
    def test_point_mass_model(self):
        class PointModel:
            def distribution(self, prefix):
                return Distribution([0.0, 1.0, 0.0])

        block = generate_draft(PointModel(), Prefix.of([0]), 3,
                               np.random.default_rng(1))
        assert block.tokens == (1, 1, 1)
        assert all(d.probs[1] == 1.0 for d in block.draft_dists)

    def test_deterministic_under_seed(self):
        class NoisyModel:
            def distribution(self, prefix):
                rng = np.random.default_rng(hash(prefix) & 0xFFFF)
                return Distribution.unchecked(np.full(4, 0.25))

        a = generate_draft(NoisyModel(), Prefix.of([7]), 4, np.random.default_rng(9))
        b = generate_draft(NoisyModel(), Prefix.of([7]), 4, np.random.default_rng(9))
        assert a.tokens == b.tokens

    def test_markov_alternating_corpus(self):
        model = MarkovModel.fit([0, 1] * 40, vocab_size=2, order=1, smoothing=0.05)
        block = generate_draft(model, Prefix.of([0]), 2, ScriptedUniforms([0.5, 0.5]))
        assert block.tokens == (1, 0)
        assert block.draft_dists[0].probs[1] > 0.99

    def test_gamma_validation(self):
        class PointModel:
            def distribution(self, prefix):
                return Distribution([1.0, 0.0])

        with pytest.raises(ValueError):
            generate_draft(PointModel(), Prefix.of(()), 0, np.random.default_rng(0))

    def test_context_grows_during_draft(self):
        seen = []

        class Recorder:
            def distribution(self, prefix):
                seen.append(tuple(prefix))
                return Distribution([1.0, 0.0])

        generate_draft(Recorder(), Prefix.of([5]), 3, np.random.default_rng(0))
        assert seen == [(5,), (5, 0), (5, 0, 0)]


class TestEmpiricalEmission:
    def test_verify_block_matches_target_marginal(self):
        rng = np.random.default_rng(54)
        q = Distribution([0.35, 0.3, 0.2, 0.15])
        p = Distribution([0.15, 0.25, 0.25, 0.35])
        counts = np.zeros(4)
        trials = 40_000
        for _ in range(trials):
            x = int(rng.choice(4, p=q.probs))
            block = DraftBlock(tokens=(x,), draft_dists=(q,))
            out = verify_block(block, [p, p], rng)
            counts[out.emitted_tokens[0]] += 1
        freq = counts / trials
        assert np.max(np.abs(freq - p.probs)) < 0.02

    def test_empirical_acceptance_frequency(self):
        rng = np.random.default_rng(55)
        q = Distribution([0.5, 0.3, 0.2])
        p = Distribution([0.2, 0.3, 0.5])
        alpha = acceptance_rate(p, q)
        accepted = 0
        trials = 30_000
        for _ in range(trials):
            x = int(rng.choice(3, p=q.probs))
            block = DraftBlock(tokens=(x,), draft_dists=(q,))
            out = verify_block(block, [p, p], rng)
            accepted += out.rejection_step is None
        assert abs(accepted / trials - alpha) < 0.02
