"""Pinned transcripts: seeded in-process runs must not change bit for bit.

Each case builds its models the way ``draftwire run --mode inprocess`` does
(``RunConfig.draft_model`` plus an ``InProcessPool`` over
``RunConfig.worker_factory``) and hashes the committed tokens of every
sample. A change that only makes generation faster must leave these digests
alone; one that changes a draw, a rounding or an acceptance decision moves
them.
"""

import hashlib

import pytest

from draftwire import InProcessPool, run_sample, sample_seed_for
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


def transcript_digest(overrides: dict[str, str], samples: int) -> str:
    raw = {"vocab_size": "512", "workers": "2", "k": "64", "gamma": "4",
           "max_tokens": "48", "seed": "7", "mode": "inprocess", **overrides}
    cfg = RunConfig.from_mapping(merge_config(raw))
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
