"""A straight-line decoder, compared with the engine over drawn settings.

The engine reaches its transcripts through shortcuts: a memo of keyed
normal draws, helper threads, a prefix delta on the wire, targets built
only when verification reads them, and prefixes that carry their hash.
The decoder below takes none of them. It hashes every query's whole
context with ``Prefix.of``, builds its models without a memo, scores every
position of a block eagerly, sends each payload through encode -> decode
-> ``reconstruct`` and sums the reconstructions in worker-index order
itself. Then it verifies the block and applies the EOS and ``max_tokens``
cut.

Over drawn settings it must reproduce ``run_sample`` on an
``InProcessPool`` (tokens, counters, per-worker uplink bytes and, when
instrumented, every array it hands its ``on_record`` bit for bit) and, at
a lossless k, ``run_reference_sample``. When a setting streams its
records, both engine paths run once more with an ``on_record`` consumer:
they must deliver, bit for bit, the records of their first run, and
collect none. A few
settings also run over a ``TcpPool``
against workers on threads of this process. And a recording made at drawn
settings, replayed at k = |V| through ``run_sample`` with its
``TraceModel``s, must give back its transcript and its blocks, as the
decoder does with the same files.
"""

import contextlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tcp_workers
from draftwire import InProcessPool, run_reference_sample, run_sample, sample_seed_for
from draftwire.aggregation import TopKProfile
from draftwire.cli import cmd_trace_record
from draftwire.compression import (
    Strategy,
    decode_payload,
    encode_payload,
    reconstruct,
    truncate_topk,
)
from draftwire.config import RunConfig, load_config_file, merge_config
from draftwire.dist import Distribution, sample
from draftwire.models import MarkovModel, SyntheticModel
from draftwire.seeding import (
    ROLE_DRAFT_MODEL,
    ROLE_DRAFT_SAMPLING,
    ROLE_VERIFICATION,
    ROLE_WORKER_MODEL_BASE,
    Prefix,
    derive_seed,
    stream,
)
from draftwire.specdec import DraftBlock, verify_block
from draftwire.transport import FRAME_HEADER, TcpPool, pack_scores

SAMPLES = 2


def decode(draft_model, worker_models, s, sample_seed):
    """One sample: (tokens, blocks, accepted, per-worker uplink bytes, records),
    each record (draft tokens, proposals, worker distributions)."""
    draft_rng = stream(sample_seed, ROLE_DRAFT_SAMPLING)
    verify_rng = stream(sample_seed, ROLE_VERIFICATION)
    w = s.weights.weights
    context, out, records = list(s.prompt), [], []
    blocks = accepted = 0
    uplink = [0] * s.m
    while True:
        tokens, qs = [], []
        for _ in range(s.gamma):
            q = draft_model.distribution(Prefix.of(context + tokens))
            tokens.append(sample(q, draft_rng))
            qs.append(q)
        shadows = [[model.distribution(Prefix.of(context + tokens[:t]))
                    for t in range(s.gamma + 1)] for model in worker_models]
        bodies = [[encode_payload(truncate_topk(d, k)) for d in dists]
                  for dists, k in zip(shadows, s.k_profile.ks)]
        for i, worker_bodies in enumerate(bodies):
            uplink[i] += FRAME_HEADER.size + len(pack_scores(0, worker_bodies))
        targets = []
        for t in range(s.gamma + 1):
            rows = [reconstruct(decode_payload(b[t]), s.strategy).probs for b in bodies]
            target = rows[0] * w[0]
            for i in range(1, s.m):
                target = target + rows[i] * w[i]
            targets.append(Distribution.unchecked(target))
        outcome = verify_block(DraftBlock(tuple(tokens), tuple(qs)), targets, verify_rng)
        blocks += 1
        accepted += outcome.accepted_count
        records.append((tokens, qs, shadows))
        committed = list(outcome.emitted_tokens)
        if s.eos in committed:
            committed = committed[:committed.index(s.eos) + 1]
        committed = committed[:s.max_tokens - len(out)]
        context += committed
        out += committed
        if s.eos in committed or len(out) == s.max_tokens:
            return tuple(out), blocks, accepted, uplink, records


def oracle_models(case, sample_seed):
    """The draft and worker models, built without the config's memo."""
    if case["model"] == "markov":
        fitted = MarkovModel.fit(case["corpus"], case["vocab_size"], case["markov_order"],
                                 case["markov_smoothing"])
        return fitted, [fitted] * case["workers"]
    shared = derive_seed(sample_seed, ROLE_DRAFT_MODEL)
    draft = SyntheticModel(case["vocab_size"], shared,
                           concentration=case["draft_concentration"],
                           temperature=case["draft_temperature"])
    workers = [SyntheticModel(case["vocab_size"],
                              derive_seed(sample_seed, ROLE_WORKER_MODEL_BASE + i),
                              concentration=case["concentration"],
                              temperature=case["temperature"],
                              correlation=case["correlation"], shared_seed=shared)
               for i in range(case["workers"])]
    return draft, workers


@st.composite
def cases(draw):
    vocab = draw(st.sampled_from([2, 3, 5, 16, 64]))
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        ks = [draw(st.integers(1, vocab))] * m
    else:
        ks = draw(st.lists(st.integers(1, vocab), min_size=m, max_size=m))
    raw = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m)
               .map(lambda r: r if any(r) else [1, *r[1:]]))
    case = {
        "vocab_size": vocab,
        "workers": m,
        "ks": ks,
        "weights": [r / sum(raw) for r in raw],
        "gamma": draw(st.integers(1, 6)),
        "max_tokens": draw(st.integers(1, 40)),
        "strategy": draw(st.sampled_from(list(Strategy))),
        "prompt": draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=3)),
        "eos": draw(st.one_of(st.none(), st.integers(0, vocab - 1))),
        "seed": draw(st.integers(0, 2**32)),
        "instrumented": draw(st.booleans()),
        "streamed": draw(st.booleans()),
        "model": draw(st.sampled_from(["synthetic", "synthetic", "markov"])),
    }
    if case["model"] == "markov":
        case["corpus"] = draw(st.lists(st.integers(0, vocab - 1), min_size=2, max_size=80))
        case["markov_order"] = draw(st.integers(1, 2))
        case["markov_smoothing"] = draw(st.sampled_from([0.05, 0.5]))
    else:
        case["correlation"] = draw(st.sampled_from([0.0, 0.3, 0.98, 1.0]))
        for key in ("concentration", "draft_concentration"):
            case[key] = draw(st.sampled_from([0.5, 4.0, 9.0]))
        for key in ("temperature", "draft_temperature"):
            case[key] = draw(st.sampled_from([0.7, 1.0, 1.3]))
    return case


def run_config(case, corpus_path) -> RunConfig:
    """The case as ``draftwire run`` would read it from flags."""
    raw = {
        "vocab_size": case["vocab_size"],
        "workers": case["workers"],
        "k": ",".join(str(k) for k in case["ks"]),
        "weights": ",".join(repr(w) for w in case["weights"]),
        "gamma": case["gamma"],
        "max_tokens": case["max_tokens"],
        "strategy": case["strategy"].name.lower(),
        "prompt": ",".join(str(t) for t in case["prompt"]),
        "eos": -1 if case["eos"] is None else case["eos"],
        "seed": case["seed"],
        "samples": SAMPLES,
        "mode": "instrumented" if case["instrumented"] else "inprocess",
        "model": case["model"],
    }
    if case["model"] == "markov":
        corpus_path.write_text(" ".join(str(t) for t in case["corpus"]))
        raw.update(corpus=corpus_path, markov_order=case["markov_order"],
                   markov_smoothing=case["markov_smoothing"])
    else:
        for key in ("correlation", "concentration", "draft_concentration",
                    "temperature", "draft_temperature"):
            raw[key] = repr(case[key])
    return RunConfig.from_mapping(merge_config({k: str(v) for k, v in raw.items()}))


def bits(dists):
    return [d.probs.view(np.uint64).tolist() for d in dists]


def record_bits(records):
    return [(rec.prefix, rec.draft_tokens, bits(rec.q_dists), [bits(d) for d in rec.worker_dists])
            for rec in records]


def assert_same_records(got, want):
    assert [(rec.draft_tokens, bits(rec.q_dists), [bits(d) for d in rec.worker_dists])
            for rec in got] == [(tuple(tokens), bits(qs), [bits(d) for d in shadows])
                                for tokens, qs, shadows in want]


def assert_streams_as_collected(run, collected, records):
    """``run(on_record)`` repeats the run that gave ``collected`` and its
    ``records``: it must hand ``on_record`` those records, bit for bit, and
    keep none itself."""
    delivered = []
    res = run(delivered.append)
    assert res.records == ()
    assert (res.tokens, res.blocks, res.accepted, res.uplink_bytes) == \
        (collected.tokens, collected.blocks, collected.accepted, collected.uplink_bytes)
    assert record_bits(delivered) == record_bits(records)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "corpus.txt"


def assert_sample_matches(cfg, pool, models, sample_seed, instrumented, streamed=False):
    """One sample through ``pool`` against the decoder on ``models``, built
    for ``sample_seed``; return the pool's result and the decoder's
    per-worker uplink bytes for all the pool's runs. ``streamed`` runs the
    sample through the pool a second time, with an ``on_record``."""
    s = cfg.settings()

    def run(on_record):
        # only an instrumented run records, through its consumer
        return run_sample(cfg.draft_model(sample_seed), pool, s, sample_seed,
                          on_record=on_record if instrumented else None)

    recorded = []
    got = run(recorded.append)
    tokens, blocks, accepted, uplink, records = decode(*models, s, sample_seed)
    assert (got.tokens, got.blocks, got.accepted) == (tokens, blocks, accepted)
    assert got.uplink_bytes == sum(uplink)
    if instrumented:
        assert_same_records(recorded, records)
    if streamed:
        assert_streams_as_collected(run, got, recorded)
        uplink = [2 * b for b in uplink]
    return got, uplink


@settings(max_examples=30, deadline=None)
@given(cases())
def test_engine_matches_straight_line_decoder(corpus_path, case):
    cfg = run_config(case, corpus_path)
    s = cfg.settings()
    lossless = replace(s, k_profile=TopKProfile.homogeneous(s.vocab_size, s.m, s.vocab_size))
    pool = InProcessPool(cfg.workers, cfg.worker_factory(), instrumented=case["instrumented"])
    uplink = [0] * s.m
    try:
        for index in range(SAMPLES):
            ss = sample_seed_for(cfg.seed, index)
            _, sample_uplink = assert_sample_matches(cfg, pool, oracle_models(case, ss), ss,
                                                     case["instrumented"], case["streamed"])
            uplink = [a + b for a, b in zip(uplink, sample_uplink)]

            def reference(on_record=None):
                return run_reference_sample(cfg.draft_model(ss), cfg.worker_models(ss), s, ss,
                                            on_record=on_record)

            ref = reference()
            tokens, blocks, accepted, _, records = decode(*oracle_models(case, ss),
                                                          lossless, ss)
            assert (ref.tokens, ref.blocks, ref.accepted) == (tokens, blocks, accepted)
            assert_same_records(ref.records, records)
            if case["streamed"]:
                assert_streams_as_collected(reference, ref, ref.records)
    finally:
        pool.close()
    assert pool.uplink_totals == uplink


@settings(max_examples=3, deadline=None)
@given(cases())
def test_tcp_pool_matches_straight_line_decoder(corpus_path, case):
    # a TCP worker exposes no shadows, so no run over it is instrumented
    cfg = run_config(case, corpus_path)
    uplink = [0] * cfg.workers
    with tcp_workers(cfg.worker_factory(), cfg.workers) as endpoints:
        pool = TcpPool(endpoints, timeout=10)
        try:
            for index in range(SAMPLES):
                ss = sample_seed_for(cfg.seed, index)
                _, sample_uplink = assert_sample_matches(cfg, pool, oracle_models(case, ss),
                                                         ss, instrumented=False)
                uplink = [a + b for a, b in zip(uplink, sample_uplink)]
        finally:
            pool.close()
    assert pool.uplink_totals == uplink


@settings(max_examples=10, deadline=None)
@given(cases())
def test_replayed_recording_matches_it_and_the_decoder(corpus_path, case):
    with tempfile.TemporaryDirectory(dir=corpus_path.parent) as trace_dir:
        trace_dir = Path(trace_dir)
        cfg = replace(run_config(case, corpus_path), samples=1, trace_dir=str(trace_dir))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cmd_trace_record(cfg) == 0
        replay = RunConfig.from_mapping(merge_config(
            load_config_file(trace_dir / "meta.cfg"), {"k": "full"}))
        ss = sample_seed_for(replay.seed, 0)
        pool = InProcessPool(replay.workers, replay.worker_factory(),
                             instrumented=case["instrumented"])
        try:
            models = replay.draft_model(ss), replay.worker_models(ss)
            got, _ = assert_sample_matches(replay, pool, models, ss, case["instrumented"])
        finally:
            pool.close()
        assert " ".join(str(t) for t in got.tokens) + "\n" == \
            (trace_dir / "transcript.txt").read_text()
        assert got.blocks == len((trace_dir / "drafts.txt").read_text().splitlines())
