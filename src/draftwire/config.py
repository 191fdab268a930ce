"""Run configuration: flat `key = value` files, flag overrides, validation.

Every key is declared once, in ``KEYS``, and can be overridden by a
command-line flag of the same name. Values are strings until
``RunConfig.from_mapping`` types and validates them, so a config file, flag
overrides, and defaults merge as plain dicts. Lines starting with # (or
blank) are ignored; arrays are comma-separated.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .aggregation import TopKProfile, WeightVector
from .compression import Strategy
from .dist import check_temperature
from .engine import SessionSettings
from .models import MarkovModel, NormalMemo, SyntheticModel, TraceModel, load_corpus
from .seeding import ROLE_DRAFT_MODEL, ROLE_WORKER_MODEL_BASE, derive_seed
from .specdec import ModelProvider
from .transport import DEFAULT_TIMEOUT, MAX_BLOCK_BYTES, ModelFactory


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or failed validation."""


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


def _text(raw: str, key: str) -> str:
    return raw.strip()


def _endpoints(raw: str, key: str) -> tuple[tuple[str, int], ...]:
    endpoints: list[tuple[str, int]] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        host, _, port_text = part.rpartition(":")
        if not host:
            raise ConfigError(f"endpoint {part!r} is not host:port")
        port = _int(port_text, key)
        if not 1 <= port <= 65535:
            raise ConfigError(f"endpoint {part!r}: port {port} out of range [1, 65535]")
        endpoints.append((host, port))
    return tuple(endpoints)


# Each key's default, as the text a config file would hold, and the parser
# that types it. Keys checked against another key (k and weights against
# workers) or against a set of names (strategy, mode, model) are typed as
# text here and finished by RunConfig.from_mapping.
KEYS: dict[str, tuple[str, Callable[[str, str], object]]] = {
    "vocab_size": ("512", _int),
    "workers": ("2", _int),
    "gamma": ("4", _int),
    "k": ("64", _text),
    "strategy": ("renormalized", _text),
    "temperature": ("1.0", _float),
    "draft_temperature": ("1.0", _float),
    "concentration": ("4.0", _float),
    "draft_concentration": ("4.0", _float),
    "correlation": ("0.98", _float),
    "model": ("synthetic", _text),
    "corpus": ("", _text),
    "markov_order": ("1", _int),
    "markov_smoothing": ("0.05", _float),
    "trace_dir": ("", _text),
    "weights": ("uniform", _text),
    "prompt": ("0", _int_list),
    "eos": ("-1", _int),
    "seed": ("42", _int),
    "samples": ("20", _int),
    "max_tokens": ("64", _int),
    "mode": ("instrumented", _text),
    "endpoints": ("", _endpoints),
    "timeout": (str(DEFAULT_TIMEOUT), _float),
    "csv": ("", _text),
    "sweep_ks": ("1,8,64,512", _int_list),
    "sweep_temperatures": ("0.8,1.0,1.2", _float_list),
}

DEFAULTS: dict[str, str] = {key: default for key, (default, _) in KEYS.items()}

KNOWN_KEYS = frozenset(KEYS)

_STRATEGIES = {s.name.lower(): s for s in Strategy}

_MODES = ("instrumented", "inprocess", "networked")

# The most workers a run may have. An in-process pool starts one helper
# thread per worker after the first, so an unbounded M would start that
# many threads; every configuration in the tests and the README has M <= 5.
MAX_WORKERS = 64


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
    """The file's keys; a relative input path (``corpus``, ``trace_dir``) is
    taken from the file's own directory, so a config reads the files beside
    it, and a recording's ``meta.cfg`` wherever the recording is copied or
    moved. ``csv`` is an output and stays relative to the working directory."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = parse_config_text(text)
    for key in ("corpus", "trace_dir"):
        if values.get(key):
            values[key] = str(Path(path).parent / values[key])
    return values


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


@contextmanager
def _config_error(source: str) -> Iterator[None]:
    """Re-raise a ValueError or OSError as a ConfigError naming ``source``."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


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
        """Type each key through ``KEYS``, then apply the cross-key rules."""
        values = {key: parse(raw[key], key) for key, (_, parse) in KEYS.items()}
        vocab_size, workers = values["vocab_size"], values["workers"]
        if vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        if not 1 <= workers <= MAX_WORKERS:
            raise ConfigError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
        gamma = values["gamma"]
        block_bytes = (gamma + workers * (gamma + 1)) * vocab_size * 8
        if block_bytes > MAX_BLOCK_BYTES:
            raise ConfigError(
                f"one block's float64 rows, (gamma + workers x (gamma + 1)) x vocab_size x 8 B, "
                f"take {block_bytes} B at vocab_size = {vocab_size}, workers = {workers}, "
                f"gamma = {gamma}: more than the {MAX_BLOCK_BYTES} B budget")
        max_tokens, prompt = values["max_tokens"], values["prompt"]
        # a gamma or max_tokens below 1 is refused later, by its own rule
        prefix_bytes = (workers + 1) * (gamma + 1) * max(0, len(prompt) + max_tokens + gamma) * 8
        if prefix_bytes > MAX_BLOCK_BYTES:
            raise ConfigError(
                f"one block's scored prefixes, (workers + 1) x (gamma + 1) x (prompt + "
                f"max_tokens + gamma) x 8 B, take {prefix_bytes} B at workers = {workers}, "
                f"gamma = {gamma}, max_tokens = {max_tokens} and a {len(prompt)}-token "
                f"prompt: more than the {MAX_BLOCK_BYTES} B budget")

        k_raw = values.pop("k")
        if k_raw == "full":
            ks = (vocab_size,) * workers
        elif "," in k_raw:
            ks = _int_list(k_raw, "k")
        else:
            ks = (_int(k_raw, "k"),) * workers
        if len(ks) != workers:
            raise ConfigError(f"k lists {len(ks)} entries for {workers} workers")
        values["ks"] = ks

        if values["strategy"] not in _STRATEGIES:
            raise ConfigError(f"strategy must be one of {sorted(_STRATEGIES)}")
        values["strategy"] = _STRATEGIES[values["strategy"]]

        try:
            if values["weights"] == "uniform":
                weights = WeightVector.uniform(workers)
            else:
                weights = WeightVector(_float_list(values["weights"], "weights"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if len(weights) != workers:
            raise ConfigError(f"weights list {len(weights)} entries for {workers} workers")
        values["weights"] = weights

        if values["mode"] not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}")
        if values["mode"] == "networked" and len(values["endpoints"]) != workers:
            raise ConfigError("networked mode needs one endpoint per worker")

        model = values["model"]
        if model not in ("synthetic", "markov", "trace"):
            raise ConfigError("model must be synthetic, markov, or trace")
        if model == "markov" and not values["corpus"]:
            raise ConfigError("markov model requires a corpus path")
        if model == "trace" and not values["trace_dir"]:
            raise ConfigError("trace model requires trace_dir")

        if values["eos"] < 0:
            values["eos"] = None
        cfg = cls(**values)
        cfg._validate()
        return cfg

    def _validate(self) -> None:
        try:
            self.settings()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for key in ("temperature", "draft_temperature"):
            with _config_error(key):
                check_temperature(getattr(self, key))
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not self.timeout > 0:
            raise ConfigError("timeout must be > 0")
        self._validate_model()

    def _validate_model(self) -> None:
        """Each model setting against the model's own rule, one key at a
        time so that the error names its key; a Markov config also fits its
        corpus here, once, for the run to reuse."""
        if self.model == "synthetic":
            for key, arg in (("concentration", "concentration"),
                             ("draft_concentration", "concentration"),
                             ("correlation", "correlation")):
                with _config_error(key):
                    SyntheticModel(self.vocab_size, 0, shared_seed=0, **{arg: getattr(self, key)})
        elif self.model == "markov":
            with _config_error("markov_order"):
                MarkovModel(self.vocab_size, self.markov_order, 1.0, {})
            with _config_error("markov_smoothing"):
                MarkovModel(self.vocab_size, 1, self.markov_smoothing, {})
            with _config_error(f"corpus {self.corpus}"):
                self._markov()

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
            with _config_error("sweep_temperatures"):
                check_temperature(t)
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
        return TraceModel.from_file(Path(self.trace_dir) / "draft.trace", self.vocab_size)

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
            return TraceModel.from_file(trace_dir / f"worker_{index}.trace", vocab_size)

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
