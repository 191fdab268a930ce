import re
import socket

import pytest

from draftwire.cli import main
from draftwire.compression import Strategy
from draftwire.config import (
    DEFAULTS,
    ConfigError,
    RunConfig,
    merge_config,
    parse_config_text,
)
from draftwire.metrics import CSV_COLUMNS, read_sweep_csv
from draftwire.models import MarkovModel


def config_from(**overrides):
    return RunConfig.from_mapping(merge_config({k: str(v) for k, v in overrides.items()}))


class TestConfigParsing:
    def test_comments_and_blanks(self):
        text = "# header\n\nvocab_size = 64\n  seed=9\n"
        assert parse_config_text(text) == {"vocab_size": "64", "seed": "9"}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("vocabulary = 64")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("vocab_size 64")

    def test_merge_precedence(self):
        merged = merge_config({"seed": "1"}, {"seed": "2", "gamma": None})
        assert merged["seed"] == "2"
        assert merged["gamma"] == DEFAULTS["gamma"]  # None flag is absent

    def test_merge_rejects_unknown(self):
        with pytest.raises(ConfigError):
            merge_config({"bogus": "1"})


class TestRunConfigTyping:
    def test_defaults_resolve(self):
        cfg = config_from()
        assert cfg.vocab_size == 512
        assert cfg.workers == 2
        assert cfg.ks == (64, 64)
        assert cfg.strategy == Strategy.RENORMALIZED
        assert cfg.eos is None
        assert cfg.mode == "instrumented"

    def test_k_full(self):
        cfg = config_from(vocab_size=32, k="full")
        assert cfg.ks == (32, 32)

    def test_k_scalar_broadcast(self):
        assert config_from(vocab_size=32, k="5", workers=3).ks == (5, 5, 5)

    def test_k_list(self):
        assert config_from(vocab_size=32, k="1,8").ks == (1, 8)

    def test_k_list_arity(self):
        with pytest.raises(ConfigError):
            config_from(vocab_size=32, k="1,2,3", workers=2)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            config_from(vocab_size=32, k="33")

    def test_weights_explicit(self):
        cfg = config_from(weights="0.25,0.75")
        assert cfg.weights.weights == pytest.approx([0.25, 0.75])

    def test_weights_bad_sum(self):
        with pytest.raises(ConfigError):
            config_from(weights="0.5,0.6")

    def test_weights_arity(self):
        with pytest.raises(ConfigError):
            config_from(weights="1.0", workers=2)

    def test_strategy_names(self):
        assert config_from(strategy="residual_uniform").strategy == Strategy.RESIDUAL_UNIFORM
        with pytest.raises(ConfigError):
            config_from(strategy="renorm")

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            config_from(mode="remote")

    def test_networked_needs_endpoints(self):
        with pytest.raises(ConfigError):
            config_from(mode="networked")
        cfg = config_from(mode="networked", endpoints="127.0.0.1:9001, 127.0.0.1:9002")
        assert cfg.endpoints == (("127.0.0.1", 9001), ("127.0.0.1", 9002))

    def test_bad_endpoint(self):
        with pytest.raises(ConfigError):
            config_from(mode="networked", endpoints="9001,9002")

    def test_markov_needs_corpus(self):
        with pytest.raises(ConfigError):
            config_from(model="markov")

    def test_trace_needs_dir(self):
        with pytest.raises(ConfigError):
            config_from(model="trace")

    def test_eos_sentinel(self):
        assert config_from(eos="-1").eos is None
        assert config_from(eos="5").eos == 5

    def test_prompt_list(self):
        assert config_from(prompt="4, 7").prompt == (4, 7)

    def test_settings_shape(self):
        settings = config_from(vocab_size=16, gamma=3, k="2").settings()
        assert settings.m == 2
        assert settings.gamma == 3
        assert settings.k_profile.ks == (2, 2)

    def test_with_temperature(self):
        cfg = config_from(temperature="0.7", draft_temperature="1.3")
        hot = cfg.with_temperature(1.2)
        assert hot.temperature == 1.2
        assert hot.draft_temperature == 1.2
        assert hot.seed == cfg.seed
        # the noise memo is keyed by content, not temperature, so it is shared
        assert hot.draft_model(5).memo is cfg.draft_model(5).memo
        assert config_from().draft_model(5).memo is not cfg.draft_model(5).memo

    def test_sweep_validation_only_on_demand(self):
        # run-style configs may shrink the vocab below default sweep ks
        cfg = config_from(vocab_size=64)
        with pytest.raises(ConfigError):
            cfg.validate_sweep()
        config_from(vocab_size=64, sweep_ks="1,8,64").validate_sweep()

    def test_samples_and_timeout_bounds(self):
        with pytest.raises(ConfigError):
            config_from(samples="0")
        with pytest.raises(ConfigError):
            config_from(timeout="0")


RUN_ARGS = ["--vocab_size", "16", "--samples", "2", "--max_tokens", "8",
            "--gamma", "2", "--k", "4"]


class TestCliRun:
    def test_instrumented_run(self, tmp_path, capsys):
        csv_path = tmp_path / "row.csv"
        code = main(["run", *RUN_ARGS, "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sample 0:" in out
        assert "sample 1:" in out
        assert "blocks=" in out and "accept_rate=" in out
        assert "strategy=renormalized" in out
        rows = read_sweep_csv(csv_path)
        assert len(rows) == 1
        assert list(rows[0]) == CSV_COLUMNS
        assert rows[0]["K"] == "4"
        assert rows[0]["lemma1_violations"] == "0"
        assert rows[0]["thm1_violations"] == "0"
        assert rows[0]["thm2_violations"] == "0"

    def test_instrumented_run_scores_each_sample_before_the_next(self, monkeypatch, capsys):
        # A sample's records are scored once it is decoded and are gone by
        # the time the next sample decodes, so a run holds one sample's.
        import weakref

        from draftwire import cli

        events, alive = [], []
        run, score = cli.run_sample, cli.block_step_metrics

        def decode(*args, **kwargs):
            events.append("decode")
            assert not any(ref() is not None for ref in alive)
            res = run(*args, **kwargs)
            alive.extend(weakref.ref(rec) for rec in res.records)
            return res

        def scored(*args, **kwargs):
            events.append("score")
            return score(*args, **kwargs)

        monkeypatch.setattr(cli, "run_sample", decode)
        monkeypatch.setattr(cli, "block_step_metrics", scored)
        assert main(["run", *RUN_ARGS, "--samples", "3"]) == 0
        capsys.readouterr()
        runs = "".join("D" if e == "decode" else "s" for e in events)
        assert runs.count("D") == 3 and runs.startswith("Ds") and "DD" not in runs
        assert len(alive) == runs.count("s")

    def test_plain_mode_skips_metrics(self, capsys):
        code = main(["run", *RUN_ARGS, "--mode", "inprocess"])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy=" not in out

    def test_lossless_k_gives_zero_bias(self, tmp_path, capsys):
        csv_path = tmp_path / "row.csv"
        code = main(["run", "--vocab_size", "16", "--samples", "1", "--max_tokens", "8",
                     "--gamma", "2", "--k", "full", "--csv", str(csv_path)])
        assert code == 0
        row = read_sweep_csv(csv_path)[0]
        assert float(row["delta_bar"]) == 0.0
        assert float(row["delta_alpha_bar"]) == 0.0

    def test_heterogeneous_k_rejected_for_metrics(self, capsys):
        code = main(["run", *RUN_ARGS[:-2], "--k", "2,4"])
        assert code == 2
        assert "homogeneous" in capsys.readouterr().err

    def test_deterministic_across_invocations(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["run", *RUN_ARGS, "--csv", str(a)]) == 0
        out_a = capsys.readouterr().out
        assert main(["run", *RUN_ARGS, "--csv", str(b)]) == 0
        out_b = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert out_a.replace(str(a), "") == out_b.replace(str(b), "")

    def test_config_file_plus_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "point.cfg"
        cfg_file.write_text("vocab_size = 16\nsamples = 1\nmax_tokens = 8\n"
                            "gamma = 2\nk = 4\nseed = 5\n")
        code = main(["run", "--config", str(cfg_file), "--seed", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=6" not in out  # transcript only; seed feeds the run
        code2 = main(["run", "--config", str(cfg_file)])
        out2 = capsys.readouterr().out
        assert code2 == 0
        assert out != out2  # different seed, different transcript

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        bad_file = tmp_path / "bad.cfg"
        bad_file.write_text("vocabulary = 16\n")
        assert main(["run", "--config", str(bad_file)]) == 2
        assert main(["run", "--vocab_size", "not_a_number"]) == 2
        assert main(["run", "--strategy", "nope"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_markov_run_fits_corpus_once(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(" ".join(str(t % 16) for t in range(200)))
        fit = MarkovModel.fit.__func__
        calls = []

        def counted_fit(cls, *args, **kwargs):
            calls.append(args)
            return fit(cls, *args, **kwargs)

        monkeypatch.setattr(MarkovModel, "fit", classmethod(counted_fit))
        code = main(["run", *RUN_ARGS[:2], "--samples", "3", *RUN_ARGS[4:],
                     "--model", "markov", "--corpus", str(corpus)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sample 2:" in out
        assert len(calls) == 1

    def test_networked_refused_exits_1(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = main(["run", *RUN_ARGS, "--mode", "networked",
                     "--endpoints", f"127.0.0.1:{free_port}", "--workers", "1",
                     "--timeout", "0.5"])
        assert code == 1
        assert "worker failure" in capsys.readouterr().err


SWEEP_ARGS = ["sweep", "--vocab_size", "16", "--samples", "1", "--max_tokens", "8",
              "--gamma", "2", "--k", "4", "--sweep_ks", "1,4,16",
              "--sweep_temperatures", "1.0"]


class TestCliSweep:
    def test_row_grid_and_monotonicity(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main([*SWEEP_ARGS, "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote 6 rows" in out
        rows = read_sweep_csv(csv_path)
        assert len(rows) == 6  # 2 strategies x 1 temperature x 3 ks
        for strategy in ("renormalized", "residual_uniform"):
            group = [r for r in rows if r["strategy"] == strategy]
            ks = [int(r["K"]) for r in group]
            assert ks == sorted(ks)
            deltas = [float(r["delta_bar"]) for r in group]
            assert all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))
            # lossless endpoint: zero distortion by construction
            assert deltas[-1] == 0.0
            epss = [float(r["eps_bar"]) for r in group]
            twos = [float(r["two_eps_bar"]) for r in group]
            for d, e, two in zip(deltas, epss, twos):
                assert two == 2 * e
                assert d <= two + 1e-9
        assert all(r["lemma1_violations"] == "0" for r in rows)
        assert all(r["thm1_violations"] == "0" for r in rows)
        assert all(r["thm2_violations"] == "0" for r in rows)

    def test_sweep_k_out_of_range_exits_2(self, capsys):
        code = main(["sweep", "--vocab_size", "16", "--samples", "1",
                     "--max_tokens", "8", "--gamma", "2", "--k", "4",
                     "--sweep_ks", "1,99", "--sweep_temperatures", "1.0"])
        assert code == 2
        assert "sweep k=99" in capsys.readouterr().err

    @pytest.mark.parametrize("ks, temps, message", [
        ("4,4", "1.0", "sweep_ks repeats 4"),
        ("1,4,1", "1.0", "sweep_ks repeats 1"),
        ("4", "1.0,1.0", "sweep_temperatures repeats 1.0"),
        ("4", "0.8,1,1.0", "sweep_temperatures repeats 1.0"),
    ])
    def test_sweep_repeated_value_exits_2(self, tmp_path, capsys, ks, temps, message):
        csv_path = tmp_path / "sweep.csv"
        code = main(["sweep", "--vocab_size", "16", "--samples", "1",
                     "--max_tokens", "8", "--gamma", "2", "--k", "4",
                     "--sweep_ks", ks, "--sweep_temperatures", temps,
                     "--csv", str(csv_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not csv_path.exists()

    def test_sweep_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main([*SWEEP_ARGS, "--csv", str(a)]) == 0
        assert main([*SWEEP_ARGS, "--csv", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

        # rows go strategy, temperature, ascending K whatever the K order given
        two_temps = [*SWEEP_ARGS, "--sweep_temperatures", "1.2,0.8"]
        outputs = []
        for ks in ("1,4,16", "16,1,4"):
            path = tmp_path / f"ks_{ks}.csv"
            assert main([*two_temps, "--sweep_ks", ks, "--csv", str(path)]) == 0
            outputs.append(path.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        rows = read_sweep_csv(tmp_path / "ks_16,1,4.csv")
        assert [(r["strategy"], r["temperature"], r["K"]) for r in rows] == [
            (strategy, t, k) for strategy in ("renormalized", "residual_uniform")
            for t in ("1.2", "0.8") for k in ("1", "4", "16")]


class TestCliTrace:
    RECORD = ["trace-record", "--vocab_size", "16", "--samples", "1",
              "--max_tokens", "8", "--gamma", "2", "--k", "4"]

    def test_record_then_replay(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        for name in ("draft.trace", "worker_0.trace", "worker_1.trace",
                     "drafts.txt", "transcript.txt", "meta.cfg"):
            assert (trace_dir / name).exists()

        csv_path = tmp_path / "replay.csv"
        code = main(["trace-replay", "--vocab_size", "16", "--gamma", "2",
                     "--k", "4", "--trace_dir", str(trace_dir),
                     "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy=renormalized" in out
        rows = read_sweep_csv(csv_path)
        assert len(rows) == 1
        assert float(rows[0]["delta_bar"]) <= 2 * float(rows[0]["eps_bar"]) + 1e-9

    def test_samples_other_than_one_is_a_config_error(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        # the last --samples wins
        assert main([*self.RECORD, "--samples", "5", "--trace_dir", str(trace_dir)]) == 2
        assert "samples = 5" in capsys.readouterr().err
        assert list(trace_dir.iterdir()) == []

    def test_meta_cfg_is_runnable(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        transcript = (trace_dir / "transcript.txt").read_text().split()

        code = main(["run", "--config", str(trace_dir / "meta.cfg"),
                     "--mode", "inprocess", "--k", "full"])
        out = capsys.readouterr().out
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("sample 0:"))
        assert line.split()[2:] == transcript

    @pytest.mark.parametrize("extra", [["--eos", "12"],
                                       ["--weights", "1.0,0.0", "--correlation", "0.3"]],
                             ids=["eos", "weights"])
    def test_meta_cfg_replays_recording(self, tmp_path, capsys, extra):
        # an EOS that ends the recording early and weights that favour one
        # worker both shape the transcript, so meta.cfg must carry them
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir), *extra]) == 0
        capsys.readouterr()
        transcript = (trace_dir / "transcript.txt").read_text().split()

        code = main(["run", "--config", str(trace_dir / "meta.cfg"),
                     "--mode", "inprocess", "--k", "full", "--samples", "1"])
        out = capsys.readouterr().out
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("sample 0:"))
        assert line.split()[2:] == transcript

    def test_meta_cfg_of_relative_trace_dir_runs_from_another_directory(
            self, tmp_path, capsys, monkeypatch):
        (tmp_path / "recorded").mkdir()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "recorded")
        assert main([*self.RECORD, "--trace_dir", "tr"]) == 0
        trace_dir = tmp_path / "recorded" / "tr"
        transcript = (trace_dir / "transcript.txt").read_text().split()
        capsys.readouterr()

        monkeypatch.chdir(tmp_path / "elsewhere")
        code = main(["run", "--config", str(trace_dir / "meta.cfg"),
                     "--mode", "inprocess", "--k", "full", "--samples", "1"])
        out = capsys.readouterr().out
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("sample 0:"))
        assert line.split()[2:] == transcript
        assert main(["trace-replay", "--config", str(trace_dir / "meta.cfg"), "--k", "4"]) == 0

    def test_exhausted_trace_exits_1(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        code = main(["run", "--config", str(trace_dir / "meta.cfg"), "--mode", "inprocess",
                     "--k", "full", "--max_tokens", "32"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == ["trace error: trace exhausted after 8 steps"]

    def test_replay_that_departs_from_the_recording_exits_1(self, tmp_path, capsys):
        # at k = 4 the replay's transcript departs from the lossless recording;
        # the first query about a prefix that was never recorded is an error
        trace_dir = tmp_path / "traces"
        assert main(["trace-record", "--trace_dir", str(trace_dir), "--vocab_size", "64",
                     "--max_tokens", "32", "--k", "full", "--samples", "1"]) == 0
        capsys.readouterr()
        code = main(["run", "--config", str(trace_dir / "meta.cfg"), "--k", "4",
                     "--samples", "1", "--mode", "inprocess"])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"trace error: {re.escape(str(trace_dir))}/draft\.trace row \d+: "
                            r"recorded for prefix hash 0x[0-9a-f]{16}, asked about 0x[0-9a-f]{16}\n",
                            err)

    def test_version_1_recording_scores_offline_but_does_not_replay(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        assert main(["trace-replay", "--config", str(trace_dir / "meta.cfg"), "--k", "4"]) == 0
        want = capsys.readouterr().out
        for path in trace_dir.glob("*.trace"):  # rewrite each file as version 1
            buf = path.read_bytes()
            steps = int.from_bytes(buf[10:14], "little")
            path.write_bytes(buf[:4] + (1).to_bytes(2, "little") + buf[6:14]
                             + buf[14 + 8 * steps:])
        assert main(["trace-replay", "--config", str(trace_dir / "meta.cfg"), "--k", "4"]) == 0
        assert capsys.readouterr().out == want
        code = main(["run", "--config", str(trace_dir / "meta.cfg"), "--mode", "inprocess",
                     "--k", "full"])
        assert code == 1
        assert "version-1 trace" in capsys.readouterr().err

    def test_record_requires_dir(self, capsys):
        assert main(self.RECORD) == 2
        assert "trace_dir" in capsys.readouterr().err

    def test_replay_requires_dir(self, capsys):
        assert main(["trace-replay"]) == 2

    def test_vocab_mismatch_fails_cleanly(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        code = main(["run", "--model", "trace", "--trace_dir", str(trace_dir),
                     "--vocab_size", "32", "--gamma", "2", "--k", "4",
                     "--samples", "1", "--max_tokens", "8", "--mode", "inprocess"])
        assert code == 1
        assert "worker failure" in capsys.readouterr().err
