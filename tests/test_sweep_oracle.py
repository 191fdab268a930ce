"""``draftwire sweep``'s CSV rows against a straight-line fold of the bounds.

The sweep scores each recorded block at every K through ``score_block``'s
array pass and folds the positions into ``SweepTally`` rows. Here every
scored position is measured one value at a time, with the per-payload
functions: eps_i from ``mass_split``, each local error as the
``l1_distance`` from a worker's distribution to its ``reconstruct``ion,
the bias against exact and compressed averages summed in a plain loop, and
each acceptance rate from ``acceptance_rate``. The values are folded
through the three bound inequalities in (sample, block, position) order
and written out as CSV rows, which must equal the sweep's rows string for
string.
"""

import pytest

from draftwire import cli, run_reference_sample, sample_seed_for
from draftwire.compression import Strategy, mass_split, reconstruct, truncate_topk
from draftwire.config import RunConfig, merge_config
from draftwire.dist import Distribution, l1_distance
from draftwire.metrics import read_sweep_csv
from draftwire.specdec import acceptance_rate

TOL = 1e-9

CASES = {
    "v16-every-k": {"vocab_size": "16", "gamma": "3", "sweep_ks": ",".join(map(str, range(1, 17))),
                    "sweep_temperatures": "0.8,1.3", "max_tokens": "24"},
    "v64-three-weighted-eos": {"vocab_size": "64", "workers": "3", "weights": "0.2,0.3,0.5",
                               "correlation": "0.6", "eos": "5", "sweep_ks": "64,1,2,7,32,63",
                               "sweep_temperatures": "1.2,0.9", "max_tokens": "40"},
    "v5-four-workers-zero-weight": {"vocab_size": "5", "workers": "4",
                                    "weights": "0.0,0.25,0.5,0.25", "correlation": "0",
                                    "gamma": "6", "sweep_ks": "1,2,3,4,5",
                                    "sweep_temperatures": "0.7,1.0", "max_tokens": "30"},
    "v32-one-worker": {"vocab_size": "32", "workers": "1", "correlation": "1.0", "gamma": "2",
                       "sweep_ks": "32,4,1", "sweep_temperatures": "1.0,2.0", "max_tokens": "16"},
}


def dense_sum(rows, w):
    """sum_i w_i rows[i], in worker-index order."""
    total = rows[0] * w[0]
    for i in range(1, len(rows)):
        total = total + rows[i] * w[i]
    return total


class Row:
    """The running sums of one CSV row."""

    def __init__(self):
        self.steps = self.dalpha_n = self.lemma1 = self.thm1 = self.thm2 = 0
        self.delta = self.eps = self.dalpha = 0.0

    def add(self, strategy, epsilons, errors, weighted_epsilon, bias, dalpha):
        self.steps += 1
        self.delta += bias
        self.eps += weighted_epsilon
        if dalpha is not None:
            self.dalpha += dalpha
            self.dalpha_n += 1
        for e, err in zip(epsilons, errors):
            if strategy is Strategy.RENORMALIZED:
                self.lemma1 += abs(err - 2.0 * e) > TOL
            else:
                self.lemma1 += err > 2.0 * e + TOL
        self.thm1 += bias > 2.0 * weighted_epsilon + TOL
        self.thm2 += dalpha is not None and (dalpha > bias / 2.0 + TOL
                                             or bias / 2.0 > weighted_epsilon + TOL)


def expected_rows(cfg: RunConfig) -> list[dict[str, str]]:
    ks = sorted(cfg.sweep_ks)
    w = cfg.weights.weights.tolist()
    rows = {(strategy, temp, k): Row()
            for strategy in Strategy for temp in cfg.sweep_temperatures for k in ks}
    for temp in cfg.sweep_temperatures:
        cfg_t = cfg.with_temperature(temp)
        for s in range(cfg.samples):
            ss = sample_seed_for(cfg.seed, s)
            res = run_reference_sample(cfg_t.draft_model(ss), cfg_t.worker_models(ss),
                                       cfg_t.settings(), ss)
            for rec in res.records:
                for t in range(cfg.gamma + 1):
                    shadows = [dists[t] for dists in rec.worker_dists]
                    exact = Distribution.unchecked(dense_sum([d.probs for d in shadows], w))
                    q = rec.q_dists[t] if t < cfg.gamma else None
                    for k in ks:
                        payloads = [truncate_topk(d, k) for d in shadows]
                        epsilons = [mass_split(p).epsilon for p in payloads]
                        weighted_epsilon = dense_sum(epsilons, w)
                        for strategy in Strategy:
                            recon = [reconstruct(p, strategy) for p in payloads]
                            errors = [l1_distance(d, r) for d, r in zip(shadows, recon)]
                            compressed = Distribution.unchecked(
                                dense_sum([r.probs for r in recon], w))
                            bias = l1_distance(compressed, exact)
                            dalpha = None if q is None else abs(
                                acceptance_rate(compressed, q) - acceptance_rate(exact, q))
                            rows[strategy, temp, k].add(strategy, epsilons, errors,
                                                        weighted_epsilon, bias, dalpha)
    out = []
    for (strategy, temp, k), row in rows.items():
        delta_bar, eps_bar = row.delta / row.steps, row.eps / row.steps
        out.append({
            "strategy": strategy.name.lower(), "M": str(cfg.workers), "gamma": str(cfg.gamma),
            "vocab_size": str(cfg.vocab_size), "K": str(k),
            "K_pct": repr(100.0 * k / cfg.vocab_size), "temperature": repr(temp),
            "seed": str(cfg.seed), "samples": str(cfg.samples), "steps": str(row.steps),
            "delta_bar": repr(delta_bar), "eps_bar": repr(eps_bar),
            "two_eps_bar": repr(2.0 * eps_bar),
            "delta_alpha_bar": repr(row.dalpha / row.dalpha_n if row.dalpha_n else 0.0),
            "half_delta_bar": repr(delta_bar / 2.0),
            "lemma1_violations": str(row.lemma1), "thm1_violations": str(row.thm1),
            "thm2_violations": str(row.thm2),
        })
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_rows_match_straight_line_fold(name, tmp_path, capsys):
    raw = {"seed": "11", "samples": "2", "k": "1", **CASES[name]}
    out = tmp_path / "sweep.csv"
    argv = [arg for key, value in raw.items() for arg in (f"--{key}", value)]
    assert cli.main(["sweep", *argv, "--csv", str(out)]) == 0
    capsys.readouterr()
    cfg = RunConfig.from_mapping(merge_config(raw))
    assert read_sweep_csv(out) == expected_rows(cfg)
