"""Federated speculative decoding with compressed top-K uplinks.

A deterministic desk-scale simulator: a draft model proposes token blocks,
worker models score them, workers ship top-K compressed distributions to an
orchestrator that reconstructs, aggregates, verifies, and measures how much
the compression distorts the aggregate and the acceptance rate.

The package exports the four names that drive a run; everything else is
imported from its module, e.g. ``draftwire.metrics.score_block``.
"""

from .engine import run_reference_sample, run_sample, sample_seed_for
from .transport import InProcessPool

__version__ = "0.1.0"
