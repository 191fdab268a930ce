"""Shipping gate: one test per release criterion.

Every criterion is asserted at its stated tolerance, no looser and no
tighter, and each test ends with a single PASS line (run ``pytest -s``
to watch them stream) naming the property, the corpus size and the
measured wall time.  All randomness is seeded, so a green gate is
reproducible bit for bit.

The figure-shape check (gate 7) runs at desk scale on purpose.
Absolute bias and acceptance numbers published for billion-parameter
models over 32k-token vocabularies need GPU-scale inference and are out
of scope here; what must carry over, and what gate 7 asserts, is the
structure: bias within twice the residual mass, acceptance drop within
the weighted residual mass, and both curves falling as the payload
grows.
"""

from __future__ import annotations

import io
import time

import numpy as np
import pytest

from conftest import random_distribution
from draftwire.aggregation import TopKProfile, WeightVector
from draftwire.cli import main
from draftwire.compression import (
    PayloadError,
    Strategy,
    decode_payload,
    encode_payload,
    mass_split,
    reconstruct,
    truncate_topk,
)
from draftwire.config import synthetic_worker_factory
from draftwire.dist import l1_distance
from draftwire.engine import (
    SessionSettings,
    run_reference_sample,
    run_sample,
    sample_seed_for,
)
from draftwire.metrics import check_bounds, instrument_position, read_sweep_csv
from draftwire.models import SyntheticModel
from draftwire.seeding import ROLE_DRAFT_MODEL, derive_seed
from draftwire.specdec import DraftBlock, acceptance_rate, verify_block
from draftwire.transport import (
    InProcessPool,
    Kind,
    Message,
    TcpPool,
    _read_exact,
    frame_decode,
    frame_encode,
    worker_serve,
)

TOL = 1e-9


def _report(line: str) -> None:
    print(f"PASS {line}", flush=True)


# ---------------------------------------------------------------------------
# gate 1: per-worker truncation error


def test_gate_1_truncation_error_identity():
    """Renormalized L1 error is exactly twice the dropped mass; the
    residual-uniform error never exceeds it."""
    rng = np.random.default_rng(0xACCE01)
    t0 = time.monotonic()
    pairs = 10_000
    for i in range(pairs):
        v = (4, 64, 512)[i % 3]
        d = random_distribution(rng, v, sparsity=(0.0, 0.4, 0.8)[(i // 3) % 3])
        k = int(rng.integers(1, v + 1))
        payload = truncate_topk(d, k)
        eps = mass_split(payload).epsilon
        err_ren = l1_distance(d, reconstruct(payload, Strategy.RENORMALIZED))
        err_res = l1_distance(d, reconstruct(payload, Strategy.RESIDUAL_UNIFORM))
        assert abs(err_ren - 2.0 * eps) <= TOL, (v, k, err_ren, eps)
        assert err_res <= 2.0 * eps + TOL, (v, k, err_res, eps)
    dt = time.monotonic() - t0
    assert dt < 10.0
    _report(
        f"gate 1 truncation error identity: {pairs} (dist, k) pairs at "
        f"|V| in (4, 64, 512), zero violations at 1e-9, {dt:.2f}s"
    )


# ---------------------------------------------------------------------------
# gates 2 and 3 share one instrumented corpus


@pytest.fixture(scope="module")
def federated_corpus():
    rng = np.random.default_rng(0xACCE23)
    t0 = time.monotonic()
    steps = []
    for _ in range(1_000):
        m = int(rng.choice((1, 2, 5)))
        v = int(rng.choice((8, 32, 128)))
        raw = rng.random(m) + 0.05
        w = WeightVector(raw / raw.sum())
        profile = TopKProfile(tuple(int(rng.integers(1, v + 1)) for _ in range(m)), v)
        workers = [
            random_distribution(rng, v, sparsity=float(rng.random() * 0.6))
            for _ in range(m)
        ]
        q = random_distribution(rng, v)
        steps.append(instrument_position(workers, q, w, profile))
    return steps, time.monotonic() - t0


def test_gate_2_aggregate_bias_bound(federated_corpus):
    """Compressed-aggregate bias stays within twice the weighted dropped
    mass for both reconstructions."""
    steps, build_dt = federated_corpus
    t0 = time.monotonic()
    assert len(steps) == 1_000
    for step in steps:
        bound = 2.0 * step.weighted_epsilon
        assert step.by_strategy[Strategy.RENORMALIZED].bias <= bound + TOL
        assert step.by_strategy[Strategy.RESIDUAL_UNIFORM].bias <= bound + TOL
    dt = build_dt + (time.monotonic() - t0)
    assert dt < 10.0
    _report(
        "gate 2 aggregate bias bound: 1000 federated steps, M in (1, 2, 5), "
        f"random weights and k profiles, both strategies, zero violations at 1e-9, {dt:.2f}s"
    )


def test_gate_3_acceptance_drop_chain(federated_corpus):
    """Acceptance-rate drop <= half the bias <= weighted dropped mass, on
    the same corpus with random draft proposals."""
    steps, _ = federated_corpus
    for step in steps:
        for strategy in (Strategy.RENORMALIZED, Strategy.RESIDUAL_UNIFORM):
            half_bias = step.by_strategy[strategy].bias / 2.0
            assert step.by_strategy[strategy].dalpha <= half_bias + TOL
            assert half_bias <= step.weighted_epsilon + TOL
            # the library's own checker must agree there is nothing to flag
            assert check_bounds(step, strategy) == (0, 0, 0)
    _report(
        "gate 3 acceptance drop chain: dalpha <= bias/2 <= weighted epsilon "
        "on the same 1000 steps, zero violations at 1e-9"
    )


# ---------------------------------------------------------------------------
# gate 4: emission marginal by exhaustive path enumeration


def _emission_marginal_by_enumeration(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    # Self-contained oracle: accept path q(x) * min(1, p(x)/q(x)) plus the
    # rejected mass rerouted through the normalized positive part of p - q.
    # Shares nothing with verify_block.
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


def test_gate_4_emission_oracle_recovers_target():
    rng = np.random.default_rng(0xACCE04)
    worst = 0.0
    for _ in range(100):
        p = random_distribution(rng, 8).probs
        q = random_distribution(rng, 8, sparsity=float(rng.random() * 0.5)).probs
        marginal = _emission_marginal_by_enumeration(q, p)
        worst = max(worst, float(np.max(np.abs(marginal - p))))
    assert worst <= TOL
    _report(
        "gate 4 emission oracle: 100 (target, proposal) pairs at |V| = 8, "
        f"single-step marginal equals target, worst gap {worst:.2e} <= 1e-9"
    )


# ---------------------------------------------------------------------------
# gates 5 and 6: end-to-end transcript equivalence

GATE_FACTORY = synthetic_worker_factory(
    concentration=3.0, temperature=1.0, correlation=0.9
)


def _gate_draft(sample_seed: int, vocab: int) -> SyntheticModel:
    return SyntheticModel(
        vocab_size=vocab,
        seed=derive_seed(sample_seed, ROLE_DRAFT_MODEL),
        concentration=3.0,
    )


def _transcript_bytes(tokens: tuple[int, ...]) -> bytes:
    return " ".join(str(t) for t in tokens).encode("ascii")


def test_gate_5_lossless_equivalence():
    """Full-vocabulary payloads reproduce the uncompressed reference path
    byte for byte."""
    vocab, m = 64, 2
    checked = 0
    for strategy in (Strategy.RENORMALIZED, Strategy.RESIDUAL_UNIFORM):
        settings = SessionSettings(
            vocab_size=vocab,
            gamma=4,
            strategy=strategy,
            weights=WeightVector.uniform(m),
            k_profile=TopKProfile.homogeneous(vocab, m, vocab),
            max_tokens=32,
        )
        pool = InProcessPool(m, GATE_FACTORY)
        try:
            for s in range(20):
                ss = sample_seed_for(0xACCE05, s)
                live = run_sample(_gate_draft(ss, vocab), pool, settings, ss)
                ref = run_reference_sample(
                    _gate_draft(ss, vocab),
                    [GATE_FACTORY(vocab, ss, i) for i in range(m)],
                    settings,
                    ss,
                )
                assert _transcript_bytes(live.tokens) == _transcript_bytes(ref.tokens)
                assert (live.blocks, live.accepted) == (ref.blocks, ref.accepted)
                checked += 1
        finally:
            pool.close()
    _report(
        f"gate 5 lossless equivalence: k = |V|, {checked // 2} seeds x both "
        "strategies, transcripts byte-identical to the uncompressed reference"
    )


def test_gate_6_cross_mode_determinism():
    """Two loopback TCP workers and the in-process pool emit byte-identical
    transcripts from the same config and seed."""
    t0 = time.monotonic()
    vocab, m = 64, 2
    settings = SessionSettings(
        vocab_size=vocab,
        gamma=4,
        strategy=Strategy.RENORMALIZED,
        weights=WeightVector.uniform(m),
        k_profile=TopKProfile.homogeneous(8, m, vocab),
        max_tokens=32,
    )
    import queue
    import threading

    workers = []
    for i in range(m):
        ready: queue.Queue = queue.Queue()
        thread = threading.Thread(
            target=worker_serve,
            args=("127.0.0.1", 0, GATE_FACTORY),
            kwargs={"worker_index": i, "ready": ready.put},
            daemon=True,
        )
        thread.start()
        workers.append((thread, ready.get(timeout=5)))

    local_pool = InProcessPool(m, GATE_FACTORY)
    net_pool = None
    try:
        net_pool = TcpPool([("127.0.0.1", port) for _, port in workers])
        for s in range(10):
            ss = sample_seed_for(0xACCE06, s)
            local = run_sample(_gate_draft(ss, vocab), local_pool, settings, ss)
            remote = run_sample(_gate_draft(ss, vocab), net_pool, settings, ss)
            assert _transcript_bytes(remote.tokens) == _transcript_bytes(local.tokens)
            assert remote.uplink_bytes == local.uplink_bytes
    finally:
        if net_pool is not None:
            net_pool.shutdown()
        local_pool.close()
        for thread, _ in workers:
            thread.join(timeout=5)
            assert not thread.is_alive()
    dt = time.monotonic() - t0
    assert dt < 30.0
    _report(
        "gate 6 cross-mode determinism: loopback TCP (2 workers) vs in-process, "
        f"10 seeds, byte-identical transcripts, {dt:.2f}s"
    )


# ---------------------------------------------------------------------------
# gate 7: sweep shape at desk scale


def test_gate_7_sweep_shape_desk_scale(tmp_path):
    """The default sweep (|V| = 512, M = 2, uniform weights, shared K,
    T in 0.8/1.0/1.2) lands inside both bounds and both curves fall as K
    grows.  Absolute values from GPU-scale runs are not reproduced here."""
    csv_path = tmp_path / "sweep.csv"
    t0 = time.monotonic()
    rc = main(["sweep", "--csv", str(csv_path)])
    dt = time.monotonic() - t0
    assert rc == 0
    assert dt < 60.0

    rows = read_sweep_csv(csv_path)
    assert len(rows) == 24  # 2 strategies x 3 temperatures x 4 K values
    groups: dict[tuple[str, str], list[dict[str, str]]] = {}
    for row in rows:
        assert row["M"] == "2" and row["vocab_size"] == "512"
        for col in ("lemma1_violations", "thm1_violations", "thm2_violations"):
            assert row[col] == "0"
        groups.setdefault((row["strategy"], row["temperature"]), []).append(row)

    assert len(groups) == 6
    for key, group in groups.items():
        group.sort(key=lambda r: int(r["K"]))
        assert [int(r["K"]) for r in group] == [1, 8, 64, 512]
        deltas = [float(r["delta_bar"]) for r in group]
        epss = [float(r["eps_bar"]) for r in group]
        dalphas = [float(r["delta_alpha_bar"]) for r in group]
        for delta, eps, dalpha in zip(deltas, epss, dalphas):
            assert delta <= 2.0 * eps + TOL, (key, delta, eps)
            assert dalpha <= eps + TOL, (key, dalpha, eps)
        # both curves non-increasing in K inside each (strategy, T) group
        for hi, lo in zip(deltas, deltas[1:]):
            assert lo <= hi + 1e-12, (key, deltas)
        for hi, lo in zip(epss, epss[1:]):
            assert lo <= hi + 1e-12, (key, epss)

    _report(
        "gate 7 figure shape at desk scale: 24 sweep rows, delta_bar <= 2*eps_bar, "
        "dalpha_bar <= eps_bar, both non-increasing in K per (strategy, T) group, "
        f"{dt:.2f}s; GPU-scale absolute numbers (32k vocab, billion-parameter "
        "models) are out of scope and NOT reproduced"
    )


# ---------------------------------------------------------------------------
# gate 8: codec and protocol robustness, demo byte accounting


def test_gate_8_codec_protocol_and_demo_accounting(capsys):
    rng = np.random.default_rng(0xACCE08)

    # 1e4 fuzzed payload decodes: typed error or a valid payload, never a crash
    vocab = 64
    survivors = 0
    for i in range(10_000):
        if i % 2 == 0:
            buf = rng.bytes(int(rng.integers(0, 65)))
        else:
            d = random_distribution(rng, vocab)
            buf = bytearray(encode_payload(truncate_topk(d, int(rng.integers(1, 9)))))
            buf[int(rng.integers(len(buf)))] ^= int(rng.integers(1, 256))
            buf = bytes(buf)
        try:
            decode_payload(buf)
            survivors += 1
        except PayloadError:
            pass

    # frame round-trip over random valid messages
    kinds = list(Kind)
    for _ in range(300):
        msg = Message(
            kind=kinds[int(rng.integers(len(kinds)))],
            corr_id=int(rng.integers(0, 2**63)),
            body=rng.bytes(int(rng.integers(0, 257))),
        )
        back = frame_decode(io.BytesIO(frame_encode(msg)).read)
        assert (back.kind, back.corr_id, back.body) == (msg.kind, msg.corr_id, msg.body)

    # demo: spawned workers, measured uplink must equal computed accounting
    rc = main([
        "launch-demo",
        "--vocab_size", "128",
        "--k", "8",
        "--max_tokens", "24",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "transcripts identical" in out
    assert out.count("accounting mismatch") == 0

    _report(
        "gate 8 codec/protocol: 10000 fuzzed decodes never crashed "
        f"({survivors} decoded clean), 300 frame round-trips exact, "
        "demo uplink bytes equal computed accounting"
    )


# ---------------------------------------------------------------------------
# gate 9: Monte Carlo acceptance frequency through the real verifier


def test_gate_9_monte_carlo_acceptance():
    """Empirical single-step acceptance over 1e5 verify_block trials matches
    sum_x min(target, proposal) within +/- 0.005 for 10 random pairs."""
    rng = np.random.default_rng(0xACCE09)
    trials = 100_000
    worst = 0.0
    for _ in range(10):
        p = random_distribution(rng, 8)
        q = random_distribution(rng, 8)
        alpha = acceptance_rate(p, q)
        xs = rng.choice(8, size=trials, p=q.probs)
        hits = 0
        for x in xs:
            outcome = verify_block(
                DraftBlock(tokens=(int(x),), draft_dists=(q,)), [p, p], rng
            )
            hits += outcome.rejection_step is None
        gap = abs(hits / trials - alpha)
        worst = max(worst, gap)
        assert gap <= 0.005, (alpha, hits / trials)
    _report(
        f"gate 9 Monte Carlo acceptance: 10 pairs x {trials} trials through "
        f"verify_block, worst |freq - alpha| = {worst:.4f} <= 0.005"
    )
