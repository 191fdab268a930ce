"""``trace-record`` against the writer it replaced, over drawn settings.

``trace-record`` takes every row's prefix hash from the block records:
``scored_prefixes(record.prefix, record.draft_tokens)``, the first gamma for
the draft model, all gamma + 1 for each worker. It once learned them from a
wrapper that logged every prefix each model was asked about. That wrapper
and the writer around it are kept below, verbatim, as the oracle: at every
drawn setting (|V| <= 64, M 1-4, gamma 1-6, max_tokens 1-40, EOS on or
off, synthetic and Markov models) each file the two write must be the
same, byte for byte. The oracle's meta.cfg names its directory, where
``trace-record`` now writes ``trace_dir = .``; that one value is replaced
before the files are compared.
"""

import contextlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from draftwire import cli
from draftwire.config import ConfigError, RunConfig
from draftwire.dist import Distribution
from draftwire.engine import run_reference_sample, sample_seed_for
from draftwire.models import write_trace
from draftwire.seeding import Prefix
from draftwire.specdec import ModelProvider
from test_decode_oracle import cases, run_config

EXIT_OK = 0


class _PrefixLog:
    """A model that logs the hash of every prefix it is asked about, so each
    recorded row can carry the prefix it answers."""

    def __init__(self, model: ModelProvider) -> None:
        self.model = model
        self.hashes: list[int] = []

    def distribution(self, prefix: Prefix) -> Distribution:
        self.hashes.append(prefix.hash)
        return self.model.distribution(prefix)


def cmd_trace_record(cfg: RunConfig) -> int:
    if not cfg.trace_dir:
        raise ConfigError("trace-record requires --trace_dir")
    if cfg.samples != 1:
        # the file layout holds one sample
        raise ConfigError(f"trace-record records one sample, got samples = {cfg.samples}")
    out = Path(cfg.trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    settings = cfg.settings()
    ss = sample_seed_for(cfg.seed, 0)
    draft = _PrefixLog(cfg.draft_model(ss))
    workers = [_PrefixLog(model) for model in cfg.worker_models(ss)]
    res = run_reference_sample(draft, workers, settings, ss)

    # each model was queried once per recorded row, in row order; the
    # rows are written from the records, not copied into one array first
    q_rows = [d.probs for rec in res.records for d in rec.q_dists]
    write_trace(out / "draft.trace", q_rows, draft.hashes)
    for i, worker in enumerate(workers):
        write_trace(out / f"worker_{i}.trace",
                    [d.probs for rec in res.records for d in rec.worker_dists[i]],
                    worker.hashes)
    (out / "drafts.txt").write_text(
        "\n".join(" ".join(str(t) for t in rec.draft_tokens) for rec in res.records) + "\n"
    )
    (out / "transcript.txt").write_text(" ".join(str(t) for t in res.tokens) + "\n")
    meta = {
        "vocab_size": cfg.vocab_size,
        "workers": cfg.workers,
        "gamma": cfg.gamma,
        "seed": cfg.seed,
        "samples": 1,
        "max_tokens": cfg.max_tokens,
        "prompt": ",".join(str(t) for t in cfg.prompt),
        "eos": -1 if cfg.eos is None else cfg.eos,
        "weights": ",".join(repr(w) for w in cfg.weights.weights.tolist()),
        "model": "trace",
        "trace_dir": str(out.resolve()),  # so meta.cfg runs from any directory
    }
    (out / "meta.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in meta.items())
    )
    print(f"recorded {res.blocks} blocks ({len(q_rows)} draft rows) to {out}")
    return EXIT_OK


def files(trace_dir):
    return {path.name: path.read_bytes() for path in sorted(trace_dir.iterdir())}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return tmp_path_factory.mktemp("record-oracle")


@settings(max_examples=30, deadline=None)
@given(cases())
def test_recorded_files_match_a_prefix_logging_wrapper(base, case):
    with tempfile.TemporaryDirectory(dir=base) as work:
        work = Path(work)
        cfg = replace(run_config(case, work / "corpus.txt"), samples=1)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.cmd_trace_record(replace(cfg, trace_dir=str(work / "new"))) == 0
            assert cmd_trace_record(replace(cfg, trace_dir=str(work / "old"))) == 0
        new, old = files(work / "new"), files(work / "old")
        old["meta.cfg"] = old["meta.cfg"].replace(
            f"trace_dir = {(work / 'old').resolve()}\n".encode(), b"trace_dir = .\n")
        assert new == old
        assert sorted(new) == sorted(["draft.trace", "drafts.txt", "meta.cfg",
                                      "transcript.txt",
                                      *(f"worker_{i}.trace" for i in range(cfg.workers))])
        # both wrote the same number of blocks and rows
        first, second = out.getvalue().splitlines()
        assert first.partition(" to ")[0] == second.partition(" to ")[0]
