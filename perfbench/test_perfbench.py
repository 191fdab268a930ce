"""Fast tests of the benchmark's own statistics and output checks.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from checks import (
    CheckFailed,
    check_eps_bar,
    check_payload,
    check_same_transcript,
    check_sample,
    check_sweep_rows,
    eps_bar_reference,
    tail_percentile,
    topk_ids,
    upload_frame_bytes,
)
from tracing import SpanTable, Tracer, block_self_ns, blocks_of

V = 512
KS = (1, 8, 64, 512)
TEMPS = (0.8, 1.0)


# -- percentile ---------------------------------------------------------------


def test_p90_needs_ten_values_beyond_it():
    assert tail_percentile(list(range(100)), 0.9) == 89
    assert tail_percentile(list(range(99)), 0.9) is None
    assert tail_percentile(list(range(10)), 0.5) is None
    assert tail_percentile(list(range(20)), 0.5) == 9


# -- decode samples -------------------------------------------------------------


def good_sample() -> dict:
    # 3 blocks, 5 accepted: emitted 8, truncated to a budget of 7.
    return dict(blocks=3, accepted=5, uplink_bytes=3 * 2 * upload_frame_bytes(4, 64),
                budget=7, vocab_size=V, gamma=4, workers=2, k=64)


def test_upload_frame_bytes_matches_layout():
    assert upload_frame_bytes(4, 64) == 13 + 12 + 5 * (4 + 8 + 8 * 64) == 2645


def test_good_sample_passes():
    check_sample([1, 2, 3, 4, 5, 6, 7], **good_sample())


@pytest.mark.parametrize("change", [
    {"uplink_bytes": 3 * 2 * 2645 + 1},
    {"uplink_bytes": 3 * 2 * 2645 - 1},
    {"budget": 8},
    {"accepted": 0},
    {"vocab_size": 7},
])
def test_sample_check_rejects(change):
    with pytest.raises(CheckFailed):
        check_sample([1, 2, 3, 4, 5, 6, 7], **{**good_sample(), **change})


def test_transcript_check_rejects_one_changed_token():
    tokens = list(range(50))
    check_same_transcript(tokens, list(tokens), "same")
    corrupt = list(tokens)
    corrupt[17] += 1
    with pytest.raises(CheckFailed, match="token 17"):
        check_same_transcript(corrupt, tokens, "corrupt")


# -- payloads -------------------------------------------------------------------


def dist(seed: int = 0, size: int = V) -> np.ndarray:
    p = np.random.default_rng(seed).random(size) ** 4
    p[[3, 9, 40]] = p.max()  # ties at the top go to the lower ids
    return p / p.sum()


def payload_of(p: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    ids = topk_ids(p, k)
    return ids, p[ids].astype(np.float32).astype(np.float64)


def test_topk_breaks_ties_by_lower_id():
    p = np.array([0.2, 0.3, 0.2, 0.3])
    assert list(topk_ids(p, 3)) == [1, 3, 0]


def test_payload_check_accepts_true_topk():
    p = dist()
    check_payload(*payload_of(p, 64), p, 64)


def test_payload_check_rejects_wrong_id():
    p = dist()
    ids, values = payload_of(p, 64)
    outside = next(i for i in range(V) if i not in set(ids.tolist()))
    ids = ids.copy()
    ids[-1] = outside
    with pytest.raises(CheckFailed, match="top-k"):
        check_payload(ids, values, p, 64)


def test_payload_check_rejects_value_not_f32_rounded():
    p = dist()
    ids, _ = payload_of(p, 64)
    with pytest.raises(CheckFailed, match="f32"):
        check_payload(ids, p[ids], p, 64)


# -- sweep rows -----------------------------------------------------------------


def sweep_rows() -> list[dict[str, str]]:
    rows = []
    for strategy in ("renormalized", "residual_uniform"):
        for t in TEMPS:
            for k in KS:
                eps = 0.0 if k == V else 0.5 / k
                rows.append({"strategy": strategy, "temperature": repr(t), "K": str(k),
                             "steps": "10", "eps_bar": repr(eps), "delta_bar": repr(1.5 * eps),
                             "delta_alpha_bar": repr(0.5 * eps)})
    return rows


def check_rows(rows) -> None:  # noqa: ANN001
    check_sweep_rows(rows, ks=KS, temperatures=TEMPS, vocab_size=V)


def test_sweep_check_accepts_good_rows():
    check_rows(sweep_rows())


def test_sweep_check_rejects_delta_above_two_eps():
    rows = sweep_rows()
    rows[1]["delta_bar"] = repr(2.0 * float(rows[1]["eps_bar"]) + 1e-6)
    with pytest.raises(CheckFailed, match="2 eps_bar"):
        check_rows(rows)


def test_sweep_check_rejects_dalpha_above_half_delta():
    rows = sweep_rows()
    rows[2]["delta_alpha_bar"] = repr(float(rows[2]["delta_bar"]) / 2 + 1e-6)
    with pytest.raises(CheckFailed, match="delta_bar / 2"):
        check_rows(rows)


def test_sweep_check_rejects_k_column_out_of_order():
    rows = sweep_rows()
    rows[1], rows[2] = rows[2], rows[1]
    with pytest.raises(CheckFailed, match="K column"):
        check_rows(rows)


def test_sweep_check_rejects_value_rising_with_k():
    rows = sweep_rows()
    rows[2]["eps_bar"] = repr(float(rows[1]["eps_bar"]) * 1.01)
    rows[2]["delta_bar"] = rows[2]["eps_bar"]
    with pytest.raises(CheckFailed, match="increases with K"):
        check_rows(rows)


def test_sweep_check_rejects_lossy_full_k():
    rows = sweep_rows()
    rows[3]["delta_bar"] = "1e-17"
    with pytest.raises(CheckFailed, match="lossless"):
        check_rows(rows)


def test_sweep_check_rejects_missing_row():
    with pytest.raises(CheckFailed, match="rows"):
        check_rows(sweep_rows()[:-1])


def test_eps_bar_reference_is_one_minus_topk_mass():
    p0, p1 = dist(1), dist(2)
    steps = [[p0, p1]]
    k = 8
    want = 0.5 * (1 - np.sort(p0)[-k:].sum()) + 0.5 * (1 - np.sort(p1)[-k:].sum())
    got = eps_bar_reference(steps, [0.5, 0.5], k)
    assert got == pytest.approx(want, abs=1e-15)
    check_eps_bar(got, want, "same")
    with pytest.raises(CheckFailed):
        check_eps_bar(got + 1e-9, want, "off")


# -- spans ----------------------------------------------------------------------


def test_block_self_time_excludes_child_spans():
    # sample span 0..100 with children 10..30 and 50..60; blocks 0..40, 40..100
    spans = [["engine.run_sample", 0, 100, -1, 0],
             ["specdec.verify_block", 10, 30, 0, 0],
             ["transport.commit", 50, 60, 0, 0]]
    table = SpanTable(spans, (0, 100))
    assert block_self_ns(table, "engine.run_sample", [(0, 40), (40, 100)]) == 100 - 30
    assert table.self_ns(0) == 70


def test_tracer_records_nesting_and_worker_cpu():
    tracer = Tracer()
    leaf = tracer.wrap("compression.truncate_topk", lambda n: sum(range(n)))
    worker = tracer.wrap("transport.handle_draft", lambda: leaf(10_000) + leaf(3))
    outer = tracer.wrap("transport.score_block", worker)
    assert outer() == sum(range(10_000)) + 3
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("transport.score_block", -1), ("transport.handle_draft", 0),
                     ("compression.truncate_topk", 1), ("compression.truncate_topk", 1)]
    assert tracer.spans[1][4] > 0  # thread CPU time of the worker span
    assert tracer.spans[0][4] == 0


def test_blocks_run_from_call_to_call_and_end_with_the_sample():
    spans = [["engine.run_sample", 0, 100, -1, 0],
             ["transport.score_block", 10, 20, 0, 0],
             ["transport.score_block", 40, 50, 0, 0],
             ["engine.run_sample", 200, 300, -1, 0],
             ["transport.score_block", 210, 220, 3, 0]]
    table = SpanTable(spans, (0, 300))
    assert blocks_of(table, "engine.run_sample", "transport.score_block") == [
        (10, 40), (40, 100), (210, 300)]


def test_tracer_keeps_projected_results_and_uninstalls():
    owner = types.SimpleNamespace(work=lambda n: list(range(n)))
    original = owner.work
    tracer = Tracer(keep={"work": len})
    tracer.install([(owner, "work", "work")])
    assert owner.work(3) == [0, 1, 2]
    assert owner.work(5) == [0, 1, 2, 3, 4]
    tracer.uninstall()
    assert owner.work is original
    assert tracer.results == {"work": [3, 5]}
    assert [s[0] for s in tracer.spans] == ["work", "work"]
