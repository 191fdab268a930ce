"""Pinned transcripts: seeded in-process runs must not change bit for bit.

Each case builds its models the way ``draftwire run --mode inprocess`` does
(``RunConfig.draft_model`` plus an ``InProcessPool`` over
``RunConfig.worker_factory``) and hashes the committed tokens of every
sample. A change that only makes generation faster must leave these digests
alone; one that changes a draw, a rounding or an acceptance decision moves
them.

The dense reference path and the records of an instrumented run are pinned
the same way, down to the bytes of every recorded distribution: they feed
the sweep, trace files and gate 5, which compares the two decode paths.
"""

import hashlib

import pytest

from draftwire import InProcessPool, run_reference_sample, run_sample, sample_seed_for
from draftwire.config import RunConfig, merge_config

CASES = {
    # name: (config overrides, samples)
    "v32000": ({"vocab_size": "32000", "max_tokens": "32", "seed": "61000"}, 1),
    "v512-rho0-renormalized": ({"correlation": "0"}, 2),
    "v512-rho0-residual": ({"correlation": "0", "strategy": "residual_uniform"}, 2),
    "v512-rho0.98-renormalized": ({"correlation": "0.98"}, 2),
    "v512-rho0.98-residual": ({"correlation": "0.98", "strategy": "residual_uniform"}, 2),
    "v512-rho1-renormalized": ({"correlation": "1.0"}, 2),
    "v512-rho1-residual": ({"correlation": "1.0", "strategy": "residual_uniform"}, 2),
    # concentrations and temperatures that are not powers of two, so that
    # reordering a multiply or divide would show in the last bits
    "v512-rho0.6-c3-t0.7": ({"correlation": "0.6", "concentration": "3.0",
                             "draft_concentration": "2.5", "temperature": "0.7",
                             "draft_temperature": "1.3"}, 2),
}

DIGESTS = {
    "v32000":
        "5c1c78b3968c710f1088402e728387615a34065d74667e1d7e051d5835dd3719",
    "v512-rho0-renormalized":
        "6f0d6192ccbe5fbda7081e1caa68f9bc1488b7f2eb74504290e8ffc3e09a8225",
    "v512-rho0-residual":
        "3ba526c8d59d3da543c7a5bfb01925a2e7a31c7db17a8540a586643696d16ef6",
    "v512-rho0.98-renormalized":
        "d2d130969f9dac3f24a005138544810e9467fdd80c94464288f0bc0d2f4bc0c2",
    "v512-rho0.98-residual":
        "5dece6bcca10b5a14be347fb93285478dacf384105786856fbc46141cec52d7d",
    "v512-rho1-renormalized":
        "35152d555bea74f04ae2f6d2dd836cdd6b2367ae0438c5dc84c77660a7cc3bb9",
    "v512-rho1-residual":
        "99965a41e04df6fecf14d402c20cc5f54993b677149dea5c04f295796b55e0f1",
    "v512-rho0.6-c3-t0.7":
        "d892a56bf663b06eb846180d873ac52372e80a4fee99d69c9431f3aaee2e5afd",
}


def make_config(overrides: dict[str, str]) -> RunConfig:
    raw = {"vocab_size": "512", "workers": "2", "k": "64", "gamma": "4",
           "max_tokens": "48", "seed": "7", "mode": "inprocess", **overrides}
    return RunConfig.from_mapping(merge_config(raw))


def transcript_digest(overrides: dict[str, str], samples: int) -> str:
    cfg = make_config(overrides)
    pool = InProcessPool(cfg.workers, cfg.worker_factory())
    lines = []
    for s in range(samples):
        ss = sample_seed_for(cfg.seed, s)
        res = run_sample(cfg.draft_model(ss), pool, cfg.settings(), ss)
        lines.append(" ".join(str(t) for t in res.tokens))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_digest_is_pinned(name):
    overrides, samples = CASES[name]
    assert transcript_digest(overrides, samples) == DIGESTS[name]


# The reference path ignores the strategy and the k profile; eos and
# non-uniform weights exercise its stop rule and aggregation.
REFERENCE_CASES = {
    "v512-rho0.98": ({}, 2),
    "v512-rho0.6-eos-weighted": ({"correlation": "0.6", "eos": "5",
                                  "weights": "0.3,0.7", "max_tokens": "64"}, 3),
}

REFERENCE_DIGESTS = {
    "v512-rho0.98":
        "d6654db065ba59267f1a717da2d55c385b7bd051270dbb527146e677bb67e178",
    "v512-rho0.6-eos-weighted":
        "587d92ed52d7f41da7af6a4d2e55a6ecd46d6678ab69cf04e21eb459b83cbc0c",
}

RECORD_CASES = {
    "v512-rho0.98-renormalized": ({}, 2),
    "v512-rho0.6-residual-eos": ({"correlation": "0.6", "strategy": "residual_uniform",
                                  "eos": "5", "k": "8", "max_tokens": "64"}, 3),
}

RECORD_DIGESTS = {
    "v512-rho0.98-renormalized":
        "40769886c61faf6f339fc657ea99497741cfc9a596c5f6e0a3a3d297f44f3fe4",
    "v512-rho0.6-residual-eos":
        "3934878ade5bd946a3734361ed97b1a57f247806316bc2a5979cd5077f434357",
}


def hash_result(h, res) -> None:
    """Counters, tokens and the bytes of every recorded distribution."""
    h.update(f"{res.tokens} {res.blocks} {res.drafted} {res.accepted} "
             f"{res.uplink_bytes} {len(res.records)}\n".encode())
    for rec in res.records:
        h.update(repr(rec.draft_tokens).encode())
        for d in rec.q_dists:
            h.update(d.probs.tobytes())
        for dists in rec.worker_dists:
            for d in dists:
                h.update(d.probs.tobytes())


def reference_digest(overrides: dict[str, str], samples: int) -> str:
    cfg = make_config(overrides)
    h = hashlib.sha256()
    for s in range(samples):
        ss = sample_seed_for(cfg.seed, s)
        hash_result(h, run_reference_sample(cfg.draft_model(ss), cfg.worker_models(ss),
                                            cfg.settings(), ss))
    return h.hexdigest()


def record_digest(overrides: dict[str, str], samples: int) -> str:
    cfg = make_config({"mode": "instrumented", **overrides})
    pool = InProcessPool(cfg.workers, cfg.worker_factory(), instrumented=True)
    h = hashlib.sha256()
    for s in range(samples):
        ss = sample_seed_for(cfg.seed, s)
        hash_result(h, run_sample(cfg.draft_model(ss), pool, cfg.settings(), ss,
                                  instrumented=True))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_reference_digest_is_pinned(name):
    overrides, samples = REFERENCE_CASES[name]
    assert reference_digest(overrides, samples) == REFERENCE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RECORD_CASES))
def test_instrumented_record_digest_is_pinned(name):
    overrides, samples = RECORD_CASES[name]
    assert record_digest(overrides, samples) == RECORD_DIGESTS[name]


# ``draftwire sweep`` CSVs, byte for byte: K lists out of order and with
# K = |V|, two temperatures, non-uniform weights, and the benchmark's grid.
SWEEP_CASES = {
    "v64-unsorted-ks-full": ["--vocab_size", "64", "--sweep_ks", "16,1,64,4",
                             "--sweep_temperatures", "1.0"],
    "v64-two-temperatures": ["--vocab_size", "64", "--sweep_ks", "8,1,32",
                             "--sweep_temperatures", "0.7,1.3"],
    "v64-weighted": ["--vocab_size", "64", "--weights", "0.3,0.7", "--sweep_ks", "2,64,16",
                     "--sweep_temperatures", "1.1,0.9"],
    "v512-default-grid": ["--max_tokens", "24", "--samples", "1"],
}

SWEEP_DIGESTS = {
    "v512-default-grid":
        "b0003b471e0725f1b7dd3b71804aa551a2986e5f3b0e6ef39f60c61bebaa176c",
    "v64-two-temperatures":
        "fcc7682ecfe9419da98e6fcc89309a3426702ebd23db65dbfeaa9bcd35279496",
    "v64-unsorted-ks-full":
        "6c0e2d74b561df7b372560e046a9c1fc798f7a17910260df6165d0b96205bac2",
    "v64-weighted":
        "5f0a93fee8d5d0da21442d7b712240d2e64c1c679ac2bccd0aae5f2c6550ad21",
}


def sweep_digest(argv: list[str], tmp_path) -> str:
    from draftwire import cli

    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--seed", "7", "--samples", "2", "--max_tokens", "32",
                     *argv, "--csv", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_csv_digest_is_pinned(name, tmp_path):
    assert sweep_digest(SWEEP_CASES[name], tmp_path) == SWEEP_DIGESTS[name]


# ``draftwire sweep`` stdout (its monotonicity summary) and CSV together, at
# five weighted workers, so that a reordered sum over workers or positions
# shows.
SWEEP_OUTPUT_ARGV = ["--vocab_size", "64", "--workers", "5",
                     "--weights", "0.1,0.2,0.3,0.15,0.25", "--gamma", "3",
                     "--sweep_ks", "64,3,1,17", "--sweep_temperatures", "0.9,1.2"]
SWEEP_OUTPUT_DIGEST = "9d010b78070082ff2bb6f0a4b181d6fbf8a632284cd47a25d77f4047ceff299f"


def test_sweep_output_digest_is_pinned(tmp_path, capsys):
    from draftwire import cli

    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--seed", "7", "--samples", "2", "--max_tokens", "32",
                     *SWEEP_OUTPUT_ARGV, "--csv", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out.replace(str(out), "CSV")
    assert hashlib.sha256(stdout.encode() + out.read_bytes()).hexdigest() == SWEEP_OUTPUT_DIGEST


# ``draftwire run --mode instrumented``: stdout and the metrics CSV row, byte
# for byte. The run scores each sample as it is decoded; these digests were
# recorded when it scored all samples at the end.
RUN_CASES = {
    "v512-rho0.98-renormalized": ["--vocab_size", "512", "--max_tokens", "32"],
    "v256-rho0.6-residual-eos-weighted": ["--vocab_size", "256", "--correlation", "0.6",
                                          "--strategy", "residual_uniform", "--eos", "5",
                                          "--weights", "0.3,0.7", "--k", "8",
                                          "--max_tokens", "48"],
}

RUN_DIGESTS = {
    "v512-rho0.98-renormalized":
        "20b4f461c629f1d25a7420747446ce8b426aca5ac48860fd5459519adedae73f",
    "v256-rho0.6-residual-eos-weighted":
        "e37f7ccc3645296478db042707b2586713f7a1688d16a62e71acec593fc22d9f",
}


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_instrumented_run_output_digest_is_pinned(name, tmp_path, capsys):
    from draftwire import cli

    out = tmp_path / "run.csv"
    code = cli.main(["run", "--mode", "instrumented", "--seed", "7", "--samples", "3",
                     *RUN_CASES[name], "--csv", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out.replace(str(out), "CSV")
    assert hashlib.sha256(stdout.encode() + out.read_bytes()).hexdigest() == RUN_DIGESTS[name]
