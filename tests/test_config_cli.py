import dataclasses
import errno
import hashlib
import io
import math
import os
import re
import shutil
import socket
import subprocess
import time
from dataclasses import replace
from pathlib import Path
from threading import TIMEOUT_MAX

import numpy as np
import pytest

from conftest import tcp_workers, watch_records
from draftwire import cli, metrics, models
from draftwire.cli import main
from draftwire.compression import Strategy
from draftwire.config import (
    DEFAULTS,
    MAX_BLOCK_BYTES,
    MAX_WORKERS,
    ConfigError,
    RunConfig,
    load_config_file,
    merge_config,
    parse_config_text,
)
from draftwire.metrics import CSV_COLUMNS, read_sweep_csv
from draftwire.models import MarkovModel, read_trace, write_trace
from draftwire.transport import WorkerFailureError


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

    def test_workers_at_the_cap_is_valid(self):
        assert config_from(workers=MAX_WORKERS, k="full").workers == MAX_WORKERS

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

    def test_endpoint_ports_at_the_ends_of_the_range(self):
        cfg = config_from(mode="networked", endpoints="127.0.0.1:1,127.0.0.1:65535")
        assert cfg.endpoints == (("127.0.0.1", 1), ("127.0.0.1", 65535))

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

    def test_timeout_ceiling_is_the_longest_wait_the_os_accepts(self):
        assert config_from(timeout=repr(TIMEOUT_MAX)).timeout == TIMEOUT_MAX
        for above in (math.nextafter(TIMEOUT_MAX, math.inf), 1e300, math.inf):
            with pytest.raises(ConfigError, match=re.escape(
                    f"timeout must be at most threading.TIMEOUT_MAX = {TIMEOUT_MAX!r} s, "
                    f"got {above!r}")):
                config_from(timeout=repr(above))


RUN_ARGS = ["--vocab_size", "16", "--samples", "2", "--max_tokens", "8",
            "--gamma", "2", "--k", "4"]


def block_error(vocab_size, workers, gamma):
    return (f"config error: one block's float64 rows, (gamma + workers x (gamma + 1)) x "
            f"vocab_size x 8 B, take {(gamma + workers * (gamma + 1)) * vocab_size * 8} B at "
            f"vocab_size = {vocab_size}, workers = {workers}, gamma = {gamma}: more than the "
            f"{MAX_BLOCK_BYTES} B budget\n")


def prefix_error(workers, gamma, max_tokens):
    size = (workers + 1) * (gamma + 1) * (1 + max_tokens + gamma) * 8
    return (f"config error: one block's scored prefixes, (workers + 1) x (gamma + 1) x "
            f"(prompt + max_tokens + gamma) x 8 B, take {size} B at workers = {workers}, "
            f"gamma = {gamma}, max_tokens = {max_tokens} and a 1-token prompt: more than the "
            f"{MAX_BLOCK_BYTES} B budget\n")


class TestBlockSizeRule:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("vocab_size, gamma", [(2**40, 4), (16, 10**12), (10**12, 10**12)])
    def test_a_block_past_the_budget_exits_2_before_any_array(self, monkeypatch, capsys,
                                                               command, vocab_size, gamma):
        for name in ("_make_pool", "run_reference_sample"):
            monkeypatch.setattr(cli, name, lambda *a, **kw: pytest.fail("decoding started"))
        code = main([command, "--mode", "inprocess", "--vocab_size", str(vocab_size),
                     "--gamma", str(gamma), "--k", "4", "--sweep_ks", "4"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == block_error(vocab_size, 2, gamma)
        assert out == ""

    # at (2, 2) the rows take exactly the budget at the widest vocabulary
    @pytest.mark.parametrize("workers, gamma", [(1, 1), (2, 2), (2, 4), (MAX_WORKERS, 9)])
    def test_the_budget_is_inclusive(self, workers, gamma):
        rows = gamma + workers * (gamma + 1)
        widest = MAX_BLOCK_BYTES // (rows * 8)
        assert config_from(vocab_size=widest, workers=workers, gamma=gamma).vocab_size == widest
        with pytest.raises(ConfigError) as exc:
            config_from(vocab_size=widest + 1, workers=workers, gamma=gamma)
        assert f"config error: {exc.value}\n" == block_error(widest + 1, workers, gamma)

    # gamma = 4000 peaked at 226 MiB in a run at |V| = 16; gamma = 699050 is
    # the widest whose rows fit there
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("gamma, max_tokens", [(4000, 1), (699050, 1), (4, 10**8),
                                                   (1, 2**63)])
    def test_prefixes_past_the_budget_exit_2_before_any_array(self, monkeypatch, capsys,
                                                              command, gamma, max_tokens):
        with pytest.raises(ConfigError):  # checked first: the command would decode
            config_from(vocab_size=16, k=4, gamma=gamma, max_tokens=max_tokens)
        for name in ("_make_pool", "run_reference_sample"):
            monkeypatch.setattr(cli, name, lambda *a, **kw: pytest.fail("decoding started"))
        code = main([command, "--mode", "inprocess", "--vocab_size", "16", "--k", "4",
                     "--gamma", str(gamma), "--max_tokens", str(max_tokens), "--sweep_ks", "4"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == prefix_error(2, gamma, max_tokens)
        assert out == ""

    @pytest.mark.parametrize("workers, gamma", [(1, 1), (2, 4), (MAX_WORKERS, 9)])
    def test_the_prefix_budget_is_inclusive(self, workers, gamma):
        longest = MAX_BLOCK_BYTES // ((workers + 1) * (gamma + 1) * 8) - 1 - gamma
        cfg = config_from(vocab_size=16, k=4, workers=workers, gamma=gamma, max_tokens=longest)
        assert cfg.max_tokens == longest
        with pytest.raises(ConfigError) as exc:
            config_from(vocab_size=16, k=4, workers=workers, gamma=gamma, max_tokens=longest + 1)
        assert f"config error: {exc.value}\n" == prefix_error(workers, gamma, longest + 1)


class TestCliRun:
    @pytest.mark.parametrize("workers", [MAX_WORKERS + 1, 10**6, 2**64])
    def test_workers_above_the_cap_exit_2_before_any_pool(self, workers, monkeypatch,
                                                           capsys):
        monkeypatch.setattr(cli, "_make_pool", lambda cfg: pytest.fail("a pool was built"))
        assert main(["run", *RUN_ARGS, "--workers", str(workers)]) == 2
        assert capsys.readouterr().err == (
            f"config error: workers must be in [1, {MAX_WORKERS}], got {workers}\n")

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

    def test_instrumented_run_scores_each_block_before_the_next(self, monkeypatch, capsys):
        # A block's record is scored once the block is verified and is gone
        # by the time the next block drafts, so a run holds one block's.
        events, alive, held = watch_records(monkeypatch)
        blocks = []
        run, score = cli.run_sample, cli.block_step_metrics

        def decode(*args, **kwargs):
            res = run(*args, **kwargs)
            blocks.append(res.blocks)
            return res

        def scored(*args, **kwargs):
            events.append("s")
            return score(*args, **kwargs)

        monkeypatch.setattr(cli, "run_sample", decode)
        monkeypatch.setattr(cli, "block_step_metrics", scored)
        assert main(["run", *RUN_ARGS, "--samples", "3"]) == 0
        capsys.readouterr()
        assert len(blocks) == 3
        assert "".join(events) == "Ds" * sum(blocks)
        assert held == [0] * sum(blocks)
        assert len(alive) == sum(blocks)

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

    def test_heterogeneous_k_is_rejected_before_decoding(self, monkeypatch, capsys):
        decoded = []
        monkeypatch.setattr("draftwire.cli.run_sample", lambda *a, **kw: decoded.append(a))
        code = main(["run", "--vocab_size", "64", "--k", "8,16", "--samples", "2",
                     "--max_tokens", "16"])
        captured = capsys.readouterr()
        assert code == 2
        assert "homogeneous" in captured.err
        assert "sample 0:" not in captured.out
        assert decoded == []

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

    def test_socket_error_of_serve_worker_is_a_worker_failure(self, capsys):
        # a bind names no file, so it keeps the worker's label
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            assert main(["serve-worker", "--port", str(port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"worker failure: [Errno {errno.EADDRINUSE}]"), err


class TestBoundViolations:
    @pytest.mark.parametrize("argv", [
        ["run", *RUN_ARGS],
        ["sweep", *RUN_ARGS, "--sweep_ks", "1,4", "--sweep_temperatures", "1.0"],
    ], ids=["run", "sweep"])
    def test_a_violated_bound_exits_3(self, monkeypatch, tmp_path, capsys, argv):
        # one thm1 violation per scored step, whatever the step
        check = metrics.check_bounds
        monkeypatch.setattr(metrics, "check_bounds",
                            lambda step, strategy: check(step, strategy)._replace(thm1=1))
        assert main([*argv, "--csv", str(tmp_path / "out.csv")]) == 3
        rows = read_sweep_csv(tmp_path / "out.csv")
        violations = sum(int(row["thm1_violations"]) for row in rows)
        assert violations > 0
        assert capsys.readouterr().err == f"BOUND VIOLATIONS: {violations}\n"


class TestTimeoutCeiling:
    """A timeout above ``threading.TIMEOUT_MAX`` is a config error, found
    before any socket or process exists; the ceiling itself works."""

    ABOVE = ["1e300", "inf", repr(math.nextafter(TIMEOUT_MAX, math.inf))]

    @pytest.mark.parametrize("timeout", ABOVE)
    def test_networked_run_above_the_ceiling_exits_2(self, monkeypatch, capsys, timeout):
        monkeypatch.setattr(cli, "_make_pool", lambda *a: pytest.fail("a pool was built"))
        code = main(["run", *RUN_ARGS, "--mode", "networked",
                     "--endpoints", "127.0.0.1:1,127.0.0.1:2", "--timeout", timeout])
        assert (code, capsys.readouterr().err) == (
            2, f"config error: timeout must be at most threading.TIMEOUT_MAX = "
               f"{TIMEOUT_MAX!r} s, got {float(timeout)!r}\n")

    @pytest.mark.parametrize("timeout", ABOVE)
    def test_launch_demo_above_the_ceiling_starts_no_worker(self, monkeypatch, capsys,
                                                            timeout):
        monkeypatch.setattr(subprocess, "Popen", lambda *a, **kw: pytest.fail("spawned"))
        assert main(["launch-demo", "--vocab_size", "32", "--k", "4", "--max_tokens", "4",
                     "--timeout", timeout]) == 2
        assert capsys.readouterr().err.startswith("config error: timeout must be at most")

    def test_networked_run_at_the_ceiling(self, capsys):
        factory = config_from(vocab_size=16, gamma=2, k=4).worker_factory()
        with tcp_workers(factory, 2) as endpoints:
            code = main(["run", *RUN_ARGS, "--mode", "networked", "--timeout", repr(TIMEOUT_MAX),
                         "--endpoints", ",".join(f"{host}:{port}" for host, port in endpoints)])
        assert code == 0
        assert "sample 1:" in capsys.readouterr().out


class TestLocalFileErrors:
    """A local path that cannot be written is a file error naming it, exit
    1, and not a worker failure. Each path's parent is a regular file, which
    no user, root included, can create entries in."""

    @pytest.mark.parametrize("argv", [
        ["run", *RUN_ARGS, "--csv", "{path}"],
        ["sweep", *RUN_ARGS, "--sweep_ks", "1,4", "--sweep_temperatures", "1.0", "--csv", "{path}"],
        ["trace-record", *RUN_ARGS, "--samples", "1", "--trace_dir", "{path}"],
    ], ids=["run-csv", "sweep-csv", "trace-record-dir"])
    def test_unwritable_path_is_a_file_error(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "out"
        code = main([arg.format(path=path) for arg in argv])
        assert (code, capsys.readouterr().err) == (
            1, f"file error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{path}'\n")


class TestLaunchDemoReaping:
    def test_failed_demo_kills_and_reaps_its_workers(self, monkeypatch, capsys):
        """Workers that never get SHUTDOWN are killed and reaped at once, not
        waited on for ``timeout`` seconds each."""
        spawned = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        def refused(endpoints, *, timeout):
            raise WorkerFailureError("worker 0: refused")

        monkeypatch.setattr(subprocess, "Popen", Recorded)
        monkeypatch.setattr(cli, "TcpPool", refused)
        start = time.monotonic()
        try:
            code = main(["launch-demo", "--timeout", "30", "--vocab_size", "32", "--k", "4",
                         "--max_tokens", "4"])
            elapsed = time.monotonic() - start
            # reaped: wait() has set each return code, and no process is left
            codes = [proc.returncode for proc in spawned]
        finally:
            for proc in spawned:
                proc.kill()
                proc.wait()
        assert (code, capsys.readouterr().err) == (1, "demo failed: worker 0: refused\n")
        assert len(spawned) == 2
        assert None not in codes
        assert elapsed < 15, elapsed


class TestPorts:
    @pytest.mark.parametrize("port", [0, -1, 65536, 70000])
    def test_endpoint_port_out_of_range_is_a_config_error(self, port, capsys):
        # 70000 used to connect to 70000 - 65536 = 4464
        endpoint = f"127.0.0.1:{port}"
        code = main(["run", *RUN_ARGS, "--mode", "networked", "--workers", "1",
                     "--endpoints", endpoint])
        assert (code, capsys.readouterr().err) == (
            2, f"config error: endpoint {endpoint!r}: port {port} out of range [1, 65535]\n")

    @pytest.mark.parametrize("port", ["-1", "65536", "70000"])
    def test_serve_worker_port_out_of_range_is_a_usage_error(self, port, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["serve-worker", "--port", port])
        assert exit_.value.code == 2
        assert f"argument --port: port {port} out of range [0, 65535]" in capsys.readouterr().err

    @pytest.mark.parametrize("port", [0, 65535])
    def test_serve_worker_port_in_range(self, port):
        # 0 asks the system for a free port
        assert cli.build_parser().parse_args(["serve-worker", "--port", str(port)]).port == port


MARKOV_CFG = ("model = markov\ncorpus = c.txt\nvocab_size = 16\nk = 4\ngamma = 2\n"
              "samples = 1\nmax_tokens = 8\n")


def write_markov_config(directory: Path) -> Path:
    """``m.cfg`` beside its corpus ``c.txt`` in ``directory``."""
    directory.mkdir()
    (directory / "c.txt").write_text(" ".join(str(t * 7 % 16) for t in range(200)))
    (directory / "m.cfg").write_text(MARKOV_CFG)
    return directory / "m.cfg"


class TestConfigFilePaths:
    """A config file's relative input paths are taken from its directory;
    flags and the ``csv`` output from the working directory."""

    def test_relative_corpus_runs_from_another_directory(self, tmp_path, monkeypatch,
                                                         capsys):
        write_markov_config(tmp_path / "cfgdir")
        (tmp_path / "other").mkdir()
        monkeypatch.chdir(tmp_path / "other")
        assert main(["run", "--config", "../cfgdir/m.cfg", "--csv", "out.csv"]) == 0
        assert "sample 0:" in capsys.readouterr().out
        assert (tmp_path / "other" / "out.csv").is_file()
        # a --corpus flag is taken from the working directory
        assert main(["run", "--config", "../cfgdir/m.cfg", "--corpus", "c.txt"]) == 2
        assert "config error: corpus c.txt: [Errno 2]" in capsys.readouterr().err

    def test_load_config_file_resolves_inputs_not_the_csv_output(self, tmp_path):
        cfg_file = tmp_path / "a.cfg"
        cfg_file.write_text("corpus = c.txt\ntrace_dir = tr\ncsv = out.csv\n")
        assert load_config_file(cfg_file) == {
            "corpus": str(tmp_path / "c.txt"), "trace_dir": str(tmp_path / "tr"),
            "csv": "out.csv"}
        # an absolute path is kept
        cfg_file.write_text("corpus = /data/c.txt\n")
        assert load_config_file(cfg_file) == {"corpus": "/data/c.txt"}


def typed_fields(cfg: RunConfig) -> dict:
    values = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.init}
    values["weights"] = cfg.weights.weights.tolist()
    return values


class TestLaunchDemoSpawn:
    """Each spawned ``serve-worker`` resolves to the parent's own config.

    ``subprocess.Popen`` is replaced, so no process starts: the fake
    worker prints nothing, ``launch-demo`` exits 1, and the argv it built
    for worker 0 is resolved as the worker would resolve it."""

    def assert_same_config(self, argv, monkeypatch, capsys):
        calls = []

        class NeverStarted:
            def __init__(self, cmd, **kwargs):
                calls.append((cmd, kwargs))
                self.stdout = io.StringIO("")

            def kill(self):
                pass

            def wait(self):
                return -9

        monkeypatch.setattr(subprocess, "Popen", NeverStarted)
        assert main(["launch-demo", *argv]) == 1
        assert "demo failed: worker 0 failed to start" in capsys.readouterr().err
        ((cmd, kwargs),) = calls
        assert cmd[1:4] == ["-m", "draftwire", "serve-worker"]
        assert "cwd" not in kwargs  # a relative path means the same file to the worker
        parser = cli.build_parser()
        parent = cli._resolve(parser.parse_args(["launch-demo", *argv]))
        worker_args = parser.parse_args(cmd[3:])
        assert (worker_args.host, worker_args.port, worker_args.worker_index) == (
            "127.0.0.1", 0, 0)
        worker = cli._resolve(worker_args)
        assert worker == parent
        assert typed_fields(RunConfig.from_mapping(worker)) == typed_fields(
            RunConfig.from_mapping(parent))

    def test_small_vocabulary(self, monkeypatch, capsys):
        # the workers once got --vocab_size 32 and the default k = 64
        self.assert_same_config(["--vocab_size", "32", "--k", "4"], monkeypatch, capsys)

    def test_markov_config_of_relative_corpus(self, tmp_path, monkeypatch, capsys):
        write_markov_config(tmp_path / "cfgdir")
        (tmp_path / "other").mkdir()
        monkeypatch.chdir(tmp_path / "other")
        self.assert_same_config(["--config", "../cfgdir/m.cfg", "--eos", "-1"], monkeypatch, capsys)

    def test_recording_meta_cfg(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["trace-record", "--trace_dir", "rec", "--vocab_size", "16",
                     "--samples", "1", "--max_tokens", "8", "--gamma", "2", "--k", "4"]) == 0
        capsys.readouterr()
        self.assert_same_config(["--config", "rec/meta.cfg", "--k", "4"], monkeypatch, capsys)


# (command and flags, what the error names); {corpus} is a good corpus,
# {tmp} the test's directory
MODEL_SETTING_ERRORS = [
    pytest.param(["run", "--draft_temperature", "0"], "draft_temperature", id="draft_temperature"),
    pytest.param(["run", "--draft_concentration", "-2"], "draft_concentration",
                 id="draft_concentration"),
    pytest.param(["sweep", "--correlation", "2"], "correlation", id="sweep-correlation"),
    pytest.param(["run", "--temperature", "0"], "temperature", id="temperature"),
    # one temperature rule, finite and > 0, for every temperature
    pytest.param(["run", "--temperature", "inf"], "temperature:", id="temperature-inf"),
    pytest.param(["run", "--draft_temperature", "inf"], "draft_temperature:",
                 id="draft_temperature-inf"),
    pytest.param(["run", "--temperature", "nan"], "temperature:", id="temperature-nan"),
    pytest.param(["run", "--concentration", "inf"], "concentration:", id="concentration-inf"),
    pytest.param(["run", "--draft_concentration", "1e301"], "draft_concentration:",
                 id="draft_concentration-too-large"),
    pytest.param(["run", "--eos", "9999"], "eos 9999 outside vocabulary", id="eos-out-of-vocabulary"),
    pytest.param(["trace-record", "--eos", "16", "--trace_dir", "{tmp}/traces"],
                 "eos 16 outside vocabulary", id="trace-record-eos"),
    pytest.param(["run", "--model", "markov", "--corpus", "{corpus}", "--markov_order", "0"],
                 "markov_order", id="markov_order"),
    pytest.param(["run", "--model", "markov", "--corpus", "{corpus}", "--markov_smoothing", "0"],
                 "markov_smoothing", id="markov_smoothing"),
    pytest.param(["run", "--model", "markov", "--corpus", "{tmp}/words.txt"],
                 "words.txt: non-integer token 'two'", id="corpus-word"),
    pytest.param(["run", "--model", "markov", "--corpus", "{tmp}/wide.txt"],
                 "wide.txt: corpus token 16 outside", id="corpus-token-out-of-vocabulary"),
    pytest.param(["run", "--model", "markov", "--corpus", "{tmp}/missing.txt"],
                 "missing.txt: [Errno 2]", id="corpus-missing"),
]


# Run in a fresh interpreter: prints the network modules loaded after the
# import, then after an in-process run and sweep.
NETWORK_MODULES_SCRIPT = """
import contextlib, io, sys
import draftwire, draftwire.cli
def loaded():
    return sorted({"socket", "subprocess"} & set(sys.modules))
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert draftwire.cli.main(["run", *sys.argv[1:]]) == 0
    assert draftwire.cli.main(["run", "--mode", "inprocess", *sys.argv[1:]]) == 0
    assert draftwire.cli.main(["sweep", *sys.argv[1:], "--sweep_ks", "1,4",
                               "--sweep_temperatures", "1.0", "--csv", "sweep.csv"]) == 0
print(loaded())
"""


def test_in_process_commands_load_no_network_module(tmp_path):
    """``socket`` and ``subprocess`` load only where ``TcpPool``,
    ``worker_serve`` or ``launch-demo`` use them: not with the package, and
    not in an in-process run or sweep."""
    import os
    import subprocess
    import sys

    import draftwire

    env = dict(os.environ)
    src = str(Path(draftwire.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", NETWORK_MODULES_SCRIPT, *RUN_ARGS],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


class TestModelSettingErrors:
    @pytest.mark.parametrize("argv, named", MODEL_SETTING_ERRORS)
    def test_invalid_model_setting_exits_2_before_decoding(self, tmp_path, capsys, argv, named):
        (tmp_path / "corpus.txt").write_text("0 1 2 3 2 1 0")
        (tmp_path / "words.txt").write_text("0 1 two 3")
        (tmp_path / "wide.txt").write_text("0 1 16 3")
        argv = [a.format(corpus=tmp_path / "corpus.txt", tmp=tmp_path) for a in argv]
        code = main([*argv, "--vocab_size", "16", "--k", "4", "--samples", "1",
                     "--max_tokens", "4", "--sweep_ks", "4", "--sweep_temperatures", "1.0",
                     "--csv", str(tmp_path / "out.csv")])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("config error: ")
        assert named in err
        assert "Traceback" not in err
        assert "sample 0:" not in out


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

    @pytest.mark.parametrize("temps", ["1,inf", "-1", "nan,1.0", "0.8,0"])
    def test_sweep_temperature_outside_the_rule_exits_2(self, tmp_path, capsys, temps):
        code = main([*SWEEP_ARGS, "--sweep_temperatures", temps,
                     "--csv", str(tmp_path / "sweep.csv")])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("config error: sweep_temperatures: temperature must be "
                              "finite and > 0")
        assert "Traceback" not in err and out == ""

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

    def test_sweep_releases_each_block_before_drafting_the_next(self, monkeypatch, tmp_path,
                                                               capsys):
        # Scored at every K once verified, a block's record is gone by the
        # time the next block drafts, in the same sample or the next, at
        # the same temperature or the next.
        _, alive, held = watch_records(monkeypatch)
        blocks = []
        decode = cli.run_reference_sample

        def decoded(*args, **kwargs):
            res = decode(*args, **kwargs)
            blocks.append(res.blocks)
            return res

        monkeypatch.setattr(cli, "run_reference_sample", decoded)
        argv = [*SWEEP_ARGS, "--samples", "3", "--sweep_temperatures", "0.8,1.2",
                "--csv", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(blocks) == 6
        assert held == [0] * sum(blocks)
        assert len(alive) == sum(blocks) and all(ref() is None for ref in alive)

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

    def test_replayed_records_are_views_of_the_read_only_trace_rows(self, tmp_path,
                                                                     capsys, monkeypatch):
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        loaded = []

        def keep(path):
            trace = read_trace(path)
            loaded.append(trace.rows)
            return trace

        monkeypatch.setattr(models, "read_trace", keep)
        cfg = config_from(trace_dir=trace_dir, vocab_size=16, gamma=2, k=4)
        records = list(cli._load_trace_records(cfg))
        q_rows, *worker_rows = loaded
        assert not any(rows.flags.writeable for rows in loaded)
        for rec in records:
            assert all(np.shares_memory(d.probs, q_rows) for d in rec.q_dists)
            for rows, dists in zip(worker_rows, rec.worker_dists, strict=True):
                assert all(np.shares_memory(d.probs, rows) for d in dists)

    def test_replayed_records_carry_the_recorded_prefixes(self, tmp_path, capsys):
        # each block is read back after the prefix it was recorded after
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir), "--gamma", "3",
                     "--max_tokens", "20"]) == 0
        capsys.readouterr()
        cfg = config_from(vocab_size=16, gamma=3, k=4, max_tokens=20, samples=1)
        ss = cli.sample_seed_for(cfg.seed, 0)
        recorded = cli.run_reference_sample(cfg.draft_model(ss), cfg.worker_models(ss),
                                            cfg.settings(), ss).records
        replayed = list(cli._load_trace_records(replace(cfg, trace_dir=str(trace_dir))))
        assert len(recorded) > 2
        assert [(rec.prefix.hash, rec.draft_tokens) for rec in replayed] == \
            [(rec.prefix.hash, rec.draft_tokens) for rec in recorded]

    # sha256 of each file a recording writes, pinned: every row and its
    # prefix hash must stay byte for byte what earlier versions wrote
    RECORD_DIGESTS = {
        "draft.trace": "1b9194bceea7a0c4864b50148571f79486d4b0792e861aae5c8bd56832decae2",
        "worker_0.trace": "f840961d4fd5e02904a879deb6350d43b55d57b377d239eab252ddade5501efe",
        "worker_1.trace": "dd81dc97f4a531b6e3bdc04bd84f8f8206b25e8cd1d74fecbae6e9504dd9e74c",
        "drafts.txt": "434e8fa163a4bcf1e5aefc5ae50ffccda2e228471db5d2aa78c09ca5701d8113",
        "transcript.txt": "ffd516bd6bb1222dd8167e255f0125f780bb3c96d44b263c9fbba8a8a6fc1fb4",
    }

    def test_recorded_files_are_pinned(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(["trace-record", "--trace_dir", str(trace_dir), "--vocab_size", "64",
                     "--workers", "2", "--gamma", "3", "--k", "8", "--samples", "1",
                     "--max_tokens", "24", "--seed", "5", "--correlation", "0.9"]) == 0
        digests = {name: hashlib.sha256((trace_dir / name).read_bytes()).hexdigest()
                   for name in self.RECORD_DIGESTS}
        assert digests == self.RECORD_DIGESTS

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
        assert err.splitlines() == [
            f"trace error: {trace_dir / 'draft.trace'}: trace exhausted after 8 steps"]

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

    def test_version_1_recording_is_refused_by_replay_and_run(self, tmp_path, capsys):
        # version 1 records no prefixes, so no replay of it could be checked
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        for path in trace_dir.glob("*.trace"):  # rewrite each file as version 1
            buf = path.read_bytes()
            steps = int.from_bytes(buf[10:14], "little")
            path.write_bytes(buf[:4] + (1).to_bytes(2, "little") + buf[6:14]
                             + buf[14 + 8 * steps:])
        meta = str(trace_dir / "meta.cfg")
        for argv in (["trace-replay", "--config", meta, "--k", "4"],
                     ["run", "--config", meta, "--mode", "inprocess", "--k", "full"]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"trace error: {trace_dir / 'draft.trace'}: unsupported trace version 1\n")

    def record_64(self, trace_dir, capsys, seed=1):
        """An 11-block recording at |V| = 64, gamma = 4."""
        assert main(["trace-record", "--trace_dir", str(trace_dir), "--vocab_size", "64",
                     "--max_tokens", "32", "--samples", "1", "--seed", str(seed)]) == 0
        assert "recorded 11 blocks" in capsys.readouterr().out

    def test_worker_trace_of_another_recording_is_refused(self, tmp_path, capsys):
        # both recordings hold 11 blocks, so every row count fits; the first
        # worker row after the shared prompt was recorded for another prefix
        self.record_64(tmp_path / "a", capsys)
        self.record_64(tmp_path / "b", capsys, seed=5)
        path = tmp_path / "a" / "worker_0.trace"
        path.write_bytes((tmp_path / "b" / "worker_0.trace").read_bytes())
        code = main(["trace-replay", "--config", str(tmp_path / "a" / "meta.cfg"), "--k", "8"])
        assert code == 1
        assert re.fullmatch(rf"trace error: {re.escape(str(path))} row 1: recorded for prefix "
                            r"hash 0x[0-9a-f]{16}, asked about 0x[0-9a-f]{16}\n",
                            capsys.readouterr().err)

    @pytest.mark.parametrize("name, line, at, message", [
        # block 2's first draft token: draft row 2 x 4 + 1 asks about another prefix
        ("drafts.txt", 2, 0, r"{dir}/draft\.trace row 9: recorded for prefix hash"),
        # the last draft token is read only at the worker rows' bonus position
        ("drafts.txt", 5, 3, r"{dir}/worker_0\.trace row 29: recorded for prefix hash"),
        ("transcript.txt", 0, 10, r"{dir}/transcript\.txt: no run of 1 to 5 tokens continues "
                                  r"block \d+ as recorded"),
    ], ids=["draft-token", "last-draft-token", "transcript-token"])
    def test_changed_token_is_refused_naming_file_and_row_or_block(
            self, tmp_path, capsys, name, line, at, message):
        trace_dir = tmp_path / "traces"
        self.record_64(trace_dir, capsys)
        path = trace_dir / name
        lines = [text.split() for text in path.read_text().splitlines()]
        lines[line][at] = str((int(lines[line][at]) + 1) % 64)
        path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines))
        code = main(["trace-replay", "--config", str(trace_dir / "meta.cfg"), "--k", "8"])
        assert code == 1
        assert re.match("trace error: " + message.format(dir=re.escape(str(trace_dir))),
                        capsys.readouterr().err)

    @pytest.mark.parametrize("name", ["draft.trace", "worker_1.trace", "drafts.txt",
                                      "transcript.txt"])
    def test_missing_file_is_a_trace_error_naming_it(self, tmp_path, capsys, name):
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        (trace_dir / name).unlink()
        want = f"trace error: cannot read {trace_dir / name}: No such file or directory\n"
        meta = str(trace_dir / "meta.cfg")
        assert main(["trace-replay", "--config", meta, "--k", "4"]) == 1
        assert capsys.readouterr().err == want
        if name == "draft.trace":  # a run reads the draft trace first
            assert main(["run", "--config", meta, "--mode", "inprocess", "--k", "full"]) == 1
            assert capsys.readouterr().err == want

    @pytest.mark.parametrize("mode", ["inprocess", "instrumented"])
    @pytest.mark.parametrize("fault", ["missing", "version-1", "other-recording"])
    def test_worker_trace_fault_is_a_trace_error_in_process(self, tmp_path, capsys,
                                                           fault, mode):
        # the in-process pool passes a worker's trace fault through as the
        # draft model's would: labelled a trace error, naming the file
        self.record_64(tmp_path / "a", capsys)
        path = tmp_path / "a" / "worker_1.trace"
        if fault == "missing":
            path.unlink()
            want = rf"cannot read {re.escape(str(path))}: No such file or directory"
        elif fault == "version-1":
            buf = path.read_bytes()
            path.write_bytes(buf[:4] + (1).to_bytes(2, "little") + buf[6:])
            want = rf"{re.escape(str(path))}: unsupported trace version 1"
        else:
            # the first row after the shared prompt answers another prefix
            self.record_64(tmp_path / "b", capsys, seed=5)
            path.write_bytes((tmp_path / "b" / "worker_1.trace").read_bytes())
            want = (rf"{re.escape(str(path))} row 1: recorded for prefix hash "
                    r"0x[0-9a-f]{16}, asked about 0x[0-9a-f]{16}")
        code = main(["run", "--config", str(tmp_path / "a" / "meta.cfg"), "--mode", mode,
                     "--k", "full"])
        assert code == 1
        assert re.fullmatch(rf"trace error: {want}\n", capsys.readouterr().err)

    @pytest.mark.parametrize("name, line", [("drafts.txt", 2), ("transcript.txt", 1)])
    def test_non_integer_token_names_file_and_line(self, tmp_path, capsys, name, line):
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        path = trace_dir / name
        lines = path.read_text().splitlines()
        lines[line - 1] += " 7x"
        path.write_text("\n".join(lines) + "\n")
        code = main(["trace-replay", "--config", str(trace_dir / "meta.cfg"), "--k", "4"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"trace error: {path} line {line}: invalid literal for int() with base 10: "
            f"b'7x'\n")

    @pytest.mark.parametrize("vocab_size, k", [(128, 100), (32, 8)], ids=["wider", "narrower"])
    def test_replay_at_another_vocab_size_is_a_trace_error(self, tmp_path, capsys,
                                                           vocab_size, k):
        # a wider vocabulary once failed inside truncate_topk; a narrower one
        # scored the 64-token rows and labelled them with the wrong K_pct
        trace_dir = tmp_path / "traces"
        assert main(["trace-record", "--trace_dir", str(trace_dir), "--vocab_size", "64",
                     "--samples", "1", "--max_tokens", "12"]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "replay.csv"
        code = main(["trace-replay", "--config", str(trace_dir / "meta.cfg"),
                     "--vocab_size", str(vocab_size), "--k", str(k), "--csv", str(csv_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"trace error: {trace_dir / 'draft.trace'} holds rows of 64 tokens, "
            f"but vocab_size is {vocab_size}\n")
        assert not csv_path.exists()

    @pytest.mark.parametrize("vocab_size", [128, 32], ids=["wider", "narrower"])
    def test_sweep_at_another_vocab_size_is_a_trace_error(self, tmp_path, capsys,
                                                          vocab_size):
        trace_dir = tmp_path / "traces"
        assert main(["trace-record", "--trace_dir", str(trace_dir), "--vocab_size", "64",
                     "--samples", "1", "--max_tokens", "12"]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(trace_dir / "meta.cfg"),
                     "--vocab_size", str(vocab_size), "--k", "8", "--sweep_ks", "4,8",
                     "--sweep_temperatures", "1.0", "--csv", str(csv_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"trace error: {trace_dir / 'draft.trace'} holds rows of 64 tokens, "
            f"but vocab_size is {vocab_size}\n")
        assert not csv_path.exists()

    def swap_in_wider(self, tmp_path, capsys, name):
        """A 16-token recording in ``tmp_path / "a"`` whose file ``name`` is
        taken from the same recording at 32 tokens; returns its path."""
        for vocab_size, trace_dir in ((16, tmp_path / "a"), (32, tmp_path / "b")):
            assert main([*self.RECORD, "--vocab_size", str(vocab_size),
                         "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        path = tmp_path / "a" / name
        path.write_bytes((tmp_path / "b" / name).read_bytes())
        return path

    # every command that reads a recording, each with the flags that let it
    # read this one through
    READERS = {
        "run-inprocess": ["run", "--mode", "inprocess", "--k", "full"],
        "run-instrumented": ["run", "--mode", "instrumented", "--k", "full"],
        "trace-replay": ["trace-replay", "--k", "4"],
        "sweep": ["sweep", "--k", "4", "--sweep_ks", "4,16", "--sweep_temperatures", "1.0"],
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("name", ["draft.trace", "worker_1.trace"])
    def test_file_of_another_width_is_a_trace_error(self, tmp_path, capsys, name, reader):
        # every reader names the file and its width, however it opens it
        path = self.swap_in_wider(tmp_path, capsys, name)
        csv_path = tmp_path / "out.csv"
        code = main([*self.READERS[reader], "--config", str(tmp_path / "a" / "meta.cfg"),
                     "--csv", str(csv_path)])
        assert (code, capsys.readouterr().err) == (
            1, f"trace error: {path} holds rows of 32 tokens, but vocab_size is 16\n")
        assert not csv_path.exists()

    @pytest.mark.parametrize("name, want", [
        ("draft.trace", "trace error: {path} holds rows of 32 tokens, but vocab_size is 16"),
        ("worker_1.trace", "worker failure: worker 1: remote error: {path} holds rows of "
                           "32 tokens, but vocab_size is 16"),
    ], ids=["draft", "worker"])
    def test_file_of_another_width_over_tcp(self, tmp_path, capsys, name, want):
        # over TCP a worker's file is opened in the worker: its ERROR reply
        # carries the message, and the run reports a worker failure
        path = self.swap_in_wider(tmp_path, capsys, name)
        meta = str(tmp_path / "a" / "meta.cfg")
        factory = RunConfig.from_mapping(
            merge_config(load_config_file(meta), {"k": "full"})).worker_factory()
        with tcp_workers(factory, 2) as endpoints:
            code = main(["run", "--config", meta, "--mode", "networked", "--k", "full",
                         "--endpoints", ",".join(f"{host}:{port}" for host, port in endpoints)])
        assert (code, capsys.readouterr().err) == (1, want.format(path=path) + "\n")

    def test_copied_recording_reads_the_copy(self, tmp_path, capsys):
        # meta.cfg's trace_dir is ".": a copy reads its own files, so a file
        # deleted from the copy is missed even though the original holds it
        trace_dir, copy = tmp_path / "traces", tmp_path / "copy"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        shutil.copytree(trace_dir, copy)
        (copy / "worker_1.trace").unlink()
        want = (f"trace error: cannot read {copy / 'worker_1.trace'}: "
                f"No such file or directory\n")
        meta = str(copy / "meta.cfg")
        for argv in (["run", "--config", meta, "--k", "full", "--samples", "1",
                      "--mode", "inprocess"],
                     ["trace-replay", "--config", meta, "--k", "4"]):
            assert (main(argv), capsys.readouterr().err) == (1, want)

    def test_moved_recording_runs_from_its_new_directory(self, tmp_path, capsys):
        trace_dir, moved = tmp_path / "traces", tmp_path / "moved"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        transcript = (trace_dir / "transcript.txt").read_text().split()
        trace_dir.rename(moved)
        meta = str(moved / "meta.cfg")
        assert main(["run", "--config", meta, "--mode", "inprocess", "--k", "full"]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("sample 0:"))
        assert line.split()[2:] == transcript
        assert main(["trace-replay", "--config", meta, "--k", "4"]) == 0

    def test_trace_dir_flag_is_taken_from_the_working_directory(self, tmp_path, capsys,
                                                                monkeypatch):
        # only a config file's relative trace_dir is read from the file's directory
        assert main([*self.RECORD, "--trace_dir", str(tmp_path / "traces")]) == 0
        capsys.readouterr()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path)
        meta = str(tmp_path / "traces" / "meta.cfg")
        assert main(["trace-replay", "--config", meta, "--trace_dir", "traces", "--k", "4"]) == 0
        capsys.readouterr()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["trace-replay", "--config", meta, "--trace_dir", "traces", "--k", "4"]) == 1
        assert capsys.readouterr().err == (
            "trace error: cannot read traces/draft.trace: No such file or directory\n")

    @pytest.mark.parametrize("gamma, message", [
        (3, "{dir}/draft.trace holds 20 rows, not a whole number of blocks of gamma = 3 rows"),
        (5, "{dir}/drafts.txt holds 5 lines, but {dir}/draft.trace holds 4 blocks "
            "of gamma = 5 rows"),
    ], ids=["draft-rows", "draft-lines"])
    def test_replay_at_another_gamma_names_the_draft_file(self, tmp_path, capsys, gamma,
                                                          message):
        # a gamma-4 recording of 5 blocks: 20 draft rows, 5 lines of drafts
        trace_dir = tmp_path / "traces"
        assert main(["trace-record", "--trace_dir", str(trace_dir), "--vocab_size", "64",
                     "--samples", "1", "--max_tokens", "12"]) == 0
        assert "recorded 5 blocks (20 draft rows)" in capsys.readouterr().out
        code = main(["trace-replay", "--config", str(trace_dir / "meta.cfg"),
                     "--gamma", str(gamma), "--k", "8"])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message.format(dir=trace_dir)}\n"

    def test_worker_trace_of_another_length_names_the_file(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(["trace-record", "--trace_dir", str(trace_dir), "--vocab_size", "64",
                     "--samples", "1", "--max_tokens", "12"]) == 0
        capsys.readouterr()
        path = trace_dir / "worker_1.trace"
        trace = read_trace(path)
        write_trace(path, trace.rows[:-1], trace.prefix_hashes[:-1])
        code = main(["trace-replay", "--config", str(trace_dir / "meta.cfg"), "--k", "8"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {path} holds 24 rows, but 5 blocks at gamma = 4 need "
            f"5 x 5 = 25\n")

    def test_record_requires_dir(self, capsys):
        assert main(self.RECORD) == 2
        assert "trace_dir" in capsys.readouterr().err

    def test_replay_requires_dir(self, capsys):
        assert main(["trace-replay"]) == 2

    def test_vocab_mismatch_fails_cleanly(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main([*self.RECORD, "--trace_dir", str(trace_dir)]) == 0
        capsys.readouterr()
        # the draft model's file is opened first, with the same width check
        for mode in ("inprocess", "instrumented"):
            code = main(["run", "--model", "trace", "--trace_dir", str(trace_dir),
                         "--vocab_size", "32", "--gamma", "2", "--k", "4",
                         "--samples", "1", "--max_tokens", "8", "--mode", mode])
            assert (code, capsys.readouterr().err) == (
                1, f"trace error: {trace_dir / 'draft.trace'} holds rows of 16 tokens, "
                   f"but vocab_size is 32\n")
