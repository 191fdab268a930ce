"""Run configuration: flat `key = value` files, flag overrides, validation.

Every key can be overridden by a command-line flag of the same name. Values
are strings until ``RunConfig.from_mapping`` types and validates them, so a
config file, flag overrides, and defaults merge as plain dicts. Lines
starting with # (or blank) are ignored; arrays are comma-separated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from .aggregation import TopKProfile, WeightVector
from .compression import Strategy
from .engine import SessionSettings
from .models import MarkovModel, NormalMemo, SyntheticModel, TraceModel, load_corpus
from .seeding import ROLE_DRAFT_MODEL, ROLE_WORKER_MODEL_BASE, derive_seed
from .specdec import ModelProvider
from .transport import DEFAULT_TIMEOUT, ModelFactory


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or failed validation."""


DEFAULTS: dict[str, str] = {
    "vocab_size": "512",
    "workers": "2",
    "gamma": "4",
    "k": "64",
    "strategy": "renormalized",
    "temperature": "1.0",
    "draft_temperature": "1.0",
    "concentration": "4.0",
    "draft_concentration": "4.0",
    "correlation": "0.98",
    "model": "synthetic",
    "corpus": "",
    "markov_order": "1",
    "markov_smoothing": "0.05",
    "trace_dir": "",
    "weights": "uniform",
    "prompt": "0",
    "eos": "-1",
    "seed": "42",
    "samples": "20",
    "max_tokens": "64",
    "mode": "instrumented",
    "endpoints": "",
    "timeout": str(DEFAULT_TIMEOUT),
    "csv": "",
    "sweep_ks": "1,8,64,512",
    "sweep_temperatures": "0.8,1.0,1.2",
}

KNOWN_KEYS = frozenset(DEFAULTS)

_STRATEGIES = {s.name.lower(): s for s in Strategy}

_MODES = ("instrumented", "inprocess", "networked")


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def load_config_file(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def merge_config(*layers: Mapping[str, str]) -> dict[str, str]:
    """Later layers win; None values are skipped (absent flags)."""
    merged = dict(DEFAULTS)
    for layer in layers:
        for key, value in layer.items():
            if value is None:
                continue
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            merged[key] = str(value)
    return merged


def _int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


def _int_list(raw: str, key: str) -> tuple[int, ...]:
    return tuple(_int(part.strip(), key) for part in raw.split(",") if part.strip())


def _float_list(raw: str, key: str) -> tuple[float, ...]:
    return tuple(_float(part.strip(), key) for part in raw.split(",") if part.strip())


class _SharedModelState:
    """Built at most once per config and shared with its temperature variants."""

    __slots__ = ("memo", "markov")

    def __init__(self) -> None:
        self.memo: NormalMemo | None = None
        self.markov: MarkovModel | None = None


@dataclass(frozen=True)
class RunConfig:
    vocab_size: int
    workers: int
    gamma: int
    ks: tuple[int, ...]
    strategy: Strategy
    temperature: float
    draft_temperature: float
    concentration: float
    draft_concentration: float
    correlation: float
    model: str
    corpus: str
    markov_order: int
    markov_smoothing: float
    trace_dir: str
    weights: WeightVector
    prompt: tuple[int, ...]
    eos: int | None
    seed: int
    samples: int
    max_tokens: int
    mode: str
    endpoints: tuple[tuple[str, int], ...]
    timeout: float
    csv: str
    sweep_ks: tuple[int, ...]
    sweep_temperatures: tuple[float, ...]
    _shared: _SharedModelState = field(
        init=False, default_factory=_SharedModelState, compare=False, repr=False)

    @classmethod
    def from_mapping(cls, raw: Mapping[str, str]) -> "RunConfig":
        vocab_size = _int(raw["vocab_size"], "vocab_size")
        workers = _int(raw["workers"], "workers")
        if vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        if workers < 1:
            raise ConfigError("workers must be >= 1")

        k_raw = raw["k"].strip()
        if k_raw == "full":
            ks = (vocab_size,) * workers
        elif "," in k_raw:
            ks = _int_list(k_raw, "k")
        else:
            ks = (_int(k_raw, "k"),) * workers
        if len(ks) != workers:
            raise ConfigError(f"k lists {len(ks)} entries for {workers} workers")

        strategy_raw = raw["strategy"].strip()
        if strategy_raw not in _STRATEGIES:
            raise ConfigError(f"strategy must be one of {sorted(_STRATEGIES)}")

        weights_raw = raw["weights"].strip()
        try:
            if weights_raw == "uniform":
                weights = WeightVector.uniform(workers)
            else:
                weights = WeightVector(_float_list(weights_raw, "weights"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if len(weights) != workers:
            raise ConfigError(f"weights list {len(weights)} entries for {workers} workers")

        mode = raw["mode"].strip()
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}")

        endpoints: list[tuple[str, int]] = []
        for part in raw["endpoints"].split(","):
            part = part.strip()
            if not part:
                continue
            host, _, port = part.rpartition(":")
            if not host:
                raise ConfigError(f"endpoint {part!r} is not host:port")
            endpoints.append((host, _int(port, "endpoints")))
        if mode == "networked" and len(endpoints) != workers:
            raise ConfigError("networked mode needs one endpoint per worker")

        model = raw["model"].strip()
        if model not in ("synthetic", "markov", "trace"):
            raise ConfigError("model must be synthetic, markov, or trace")
        if model == "markov" and not raw["corpus"].strip():
            raise ConfigError("markov model requires a corpus path")
        if model == "trace" and not raw["trace_dir"].strip():
            raise ConfigError("trace model requires trace_dir")

        eos = _int(raw["eos"], "eos")
        cfg = cls(
            vocab_size=vocab_size,
            workers=workers,
            gamma=_int(raw["gamma"], "gamma"),
            ks=ks,
            strategy=_STRATEGIES[strategy_raw],
            temperature=_float(raw["temperature"], "temperature"),
            draft_temperature=_float(raw["draft_temperature"], "draft_temperature"),
            concentration=_float(raw["concentration"], "concentration"),
            draft_concentration=_float(raw["draft_concentration"], "draft_concentration"),
            correlation=_float(raw["correlation"], "correlation"),
            model=model,
            corpus=raw["corpus"].strip(),
            markov_order=_int(raw["markov_order"], "markov_order"),
            markov_smoothing=_float(raw["markov_smoothing"], "markov_smoothing"),
            trace_dir=raw["trace_dir"].strip(),
            weights=weights,
            prompt=_int_list(raw["prompt"], "prompt"),
            eos=None if eos < 0 else eos,
            seed=_int(raw["seed"], "seed"),
            samples=_int(raw["samples"], "samples"),
            max_tokens=_int(raw["max_tokens"], "max_tokens"),
            mode=mode,
            endpoints=tuple(endpoints),
            timeout=_float(raw["timeout"], "timeout"),
            csv=raw["csv"].strip(),
            sweep_ks=_int_list(raw["sweep_ks"], "sweep_ks"),
            sweep_temperatures=_float_list(raw["sweep_temperatures"], "sweep_temperatures"),
        )
        cfg._validate()
        return cfg

    def _validate(self) -> None:
        try:
            self.settings()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not self.timeout > 0:
            raise ConfigError("timeout must be > 0")

    def validate_sweep(self) -> None:
        """Sweep-list checks, applied only when the lists are actually used."""
        if not self.sweep_ks:
            raise ConfigError("sweep_ks must be non-empty")
        for k in self.sweep_ks:
            if not 1 <= k <= self.vocab_size:
                raise ConfigError(f"sweep k={k} out of range [1, {self.vocab_size}]")
        if not self.sweep_temperatures:
            raise ConfigError("sweep_temperatures must be non-empty")
        for t in self.sweep_temperatures:
            if not t > 0:
                raise ConfigError("temperatures must be > 0")
        # a repeated value would score and report the same point twice
        for key, values in (("sweep_ks", self.sweep_ks),
                            ("sweep_temperatures", self.sweep_temperatures)):
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ConfigError(f"{key} repeats {v!r}")

    def settings(self) -> SessionSettings:
        return SessionSettings(
            vocab_size=self.vocab_size,
            gamma=self.gamma,
            strategy=self.strategy,
            weights=self.weights,
            k_profile=TopKProfile(self.ks, self.vocab_size),
            max_tokens=self.max_tokens,
            prompt=self.prompt,
            eos=self.eos,
        )

    def with_temperature(self, t: float) -> "RunConfig":
        """Sweep variant: both model temperatures follow the sweep point.

        The variant shares this config's memo and fitted Markov model:
        neither depends on a temperature.
        """
        variant = replace(self, temperature=t, draft_temperature=t)
        object.__setattr__(variant, "_shared", self._shared)
        return variant

    # -- model wiring -------------------------------------------------------

    def draft_model(self, sample_seed: int) -> ModelProvider:
        if self.model == "synthetic":
            return SyntheticModel(
                vocab_size=self.vocab_size,
                seed=derive_seed(sample_seed, ROLE_DRAFT_MODEL),
                concentration=self.draft_concentration,
                temperature=self.draft_temperature,
                memo=self._memo(),
            )
        if self.model == "markov":
            return self._markov()
        return TraceModel.from_file(Path(self.trace_dir) / "draft.trace")

    def worker_factory(self) -> ModelFactory:
        if self.model == "synthetic":
            return synthetic_worker_factory(
                concentration=self.concentration,
                temperature=self.temperature,
                correlation=self.correlation,
                memo=self._memo(),
            )
        if self.model == "markov":
            fitted = self._markov()

            def markov_factory(vocab_size: int, seed_material: int, index: int) -> ModelProvider:
                if vocab_size != fitted.vocab_size:
                    raise ValueError(
                        f"corpus vocabulary {fitted.vocab_size} != configured {vocab_size}"
                    )
                return fitted

            return markov_factory

        trace_dir = Path(self.trace_dir)

        def trace_factory(vocab_size: int, seed_material: int, index: int) -> ModelProvider:
            model = TraceModel.from_file(trace_dir / f"worker_{index}.trace")
            if model.vocab_size != vocab_size:
                raise ValueError(
                    f"trace vocabulary {model.vocab_size} != configured {vocab_size}"
                )
            return model

        return trace_factory

    def worker_models(self, sample_seed: int) -> list[ModelProvider]:
        factory = self.worker_factory()
        return [factory(self.vocab_size, sample_seed, i) for i in range(self.workers)]

    def _memo(self) -> NormalMemo:
        """One block's distinct draws: gamma draft positions plus the bonus."""
        if self._shared.memo is None:
            self._shared.memo = NormalMemo(self.gamma + 1)
        return self._shared.memo

    def _markov(self) -> MarkovModel:
        if self._shared.markov is None:
            self._shared.markov = MarkovModel.fit(
                load_corpus(self.corpus),
                vocab_size=self.vocab_size,
                order=self.markov_order,
                smoothing=self.markov_smoothing,
            )
        return self._shared.markov


def synthetic_worker_factory(
    *, concentration: float, temperature: float, correlation: float,
    memo: NormalMemo | None = None,
) -> ModelFactory:
    """Workers keyed off the sample seed, sharing the draft model's noise.

    Worker i's own seed comes from (seed material, worker role + i); the
    shared component is keyed exactly like the draft model's seed, so
    correlation 1 reproduces the draft model's logits. Given the draft
    model's ``memo``, every worker reads that shared component from it.
    """

    def factory(vocab_size: int, seed_material: int, index: int) -> ModelProvider:
        return SyntheticModel(
            vocab_size=vocab_size,
            seed=derive_seed(seed_material, ROLE_WORKER_MODEL_BASE + index),
            concentration=concentration,
            temperature=temperature,
            correlation=correlation,
            shared_seed=derive_seed(seed_material, ROLE_DRAFT_MODEL),
            memo=memo,
        )

    return factory
