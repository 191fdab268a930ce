"""The command line's exit-code contract, fuzzed in-process.

``draftwire run`` and ``draftwire sweep`` are called through ``cli.main`` at
|V| = 16 and a few tokens, with one or two numeric, list or choice keys set
to drawn values: 0, negatives, inf, nan, 1e-320, 2^64 and beyond, lists
with repeats, and random text. Keys that size the work (|V|, workers, gamma,
samples, max_tokens) draw only small or invalid values, so that no example
is expensive; workers also draws values above its cap, and |V| and gamma
huge values such as 2^40 and 10^12, whose block the size rule refuses
before any array is built. gamma also draws values in [10^5, 7 x 10^5],
whose rows mostly fit at |V| = 16, and max_tokens values in [10^7, 2^63]:
their scored prefixes do not fit, and the size rule refuses them too. Keys
that name files are left out: their runtime failures rightly exit 1. For
the same reason endpoints draws only ports outside [1, 65535], which no run
may connect to.

Every outcome is exit 0 with its output lines, or exit 2 with a
``config error:`` line and no ``sample 0:`` line; a huge |V| or gamma, and
a gamma or max_tokens past the prefix budget, is always exit 2. No
exception leaves ``main``, no command exits 1 or 3, and no RuntimeWarning
is raised.
"""

import contextlib
import io
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from draftwire import cli
from draftwire.config import MAX_WORKERS

BASE = ["--vocab_size", "16", "--k", "4", "--gamma", "2", "--samples", "1",
        "--max_tokens", "4", "--sweep_ks", "1,4,16", "--sweep_temperatures", "1.0"]

SPECIAL = st.sampled_from(["0", "-0", "-1", "-7", "inf", "-inf", "nan", "1e-320", "-1e-320",
                           "2.5", "1", "3", "", " "])
TEXT = st.text(max_size=6)
NUMBER = st.one_of(
    SPECIAL,
    st.integers(-20, 40).map(str),
    st.integers(2**64, 2**80).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    TEXT,
)
# values for the keys that size the work: small, or invalid
SIZE = st.one_of(SPECIAL, st.integers(-3, 6).map(str), TEXT)
# workers also draws values above the cap, never a large valid one
WORKERS = st.one_of(SIZE, st.integers(MAX_WORKERS + 1, 2**80).map(str))
# |V| and gamma also draw values whose block is far past MAX_BLOCK_BYTES
# at any workers and gamma >= 0
HUGE = ["1099511627776", "1000000000000"]  # 2^40, 10^12
LARGE = st.one_of(st.sampled_from(HUGE), st.integers(2**40, 2**80).map(str))
VOCAB = st.one_of(SPECIAL, st.integers(-3, 24).map(str), TEXT, LARGE)
# gamma and max_tokens also draw values whose rows fit at |V| = 16 but
# whose scored prefixes are far past MAX_BLOCK_BYTES
LONG_GAMMA, LONG_OUTPUT = 10**5, 10**7
GAMMA = st.one_of(SIZE, LARGE, st.integers(LONG_GAMMA, 7 * 10**5).map(str))
MAX_TOKENS = st.one_of(SIZE, st.integers(LONG_OUTPUT, 2**63).map(str))


def at_least(values, key, low):
    """Whether ``values`` sets ``key`` to an integer of at least ``low``."""
    try:
        return int(values[key]) >= low
    except (KeyError, ValueError):
        return False


def lists(item):
    """Comma-joined lists of ``item``, some with a repeated entry."""
    return st.one_of(
        st.lists(item, max_size=4),
        st.lists(item, min_size=1, max_size=3).map(lambda xs: xs + xs[:1]),
    ).map(",".join)


def choices(*names):
    return st.one_of(st.sampled_from(names), TEXT)


KEYS = {
    "vocab_size": VOCAB,
    "workers": WORKERS,
    "gamma": GAMMA,
    "samples": SIZE,
    "max_tokens": MAX_TOKENS,
    "markov_order": SIZE,
    "k": st.one_of(NUMBER, lists(NUMBER), st.just("full")),
    "strategy": choices("renormalized", "residual_uniform"),
    "temperature": NUMBER,
    "draft_temperature": NUMBER,
    "concentration": NUMBER,
    "draft_concentration": NUMBER,
    "correlation": NUMBER,
    "model": choices("synthetic", "markov", "trace"),
    "markov_smoothing": NUMBER,
    "weights": st.one_of(lists(NUMBER), st.just("uniform"), st.just("0.5,0.5")),
    "prompt": lists(NUMBER),
    "eos": NUMBER,
    "seed": NUMBER,
    "mode": choices("instrumented", "inprocess", "networked"),
    "timeout": NUMBER,
    "endpoints": lists(st.sampled_from([0, -1, 65536, 70000]).map(lambda p: f"127.0.0.1:{p}")),
    "sweep_ks": lists(NUMBER),
    "sweep_temperatures": lists(NUMBER),
}

SETTINGS = st.dictionaries(st.sampled_from(sorted(KEYS)), st.just(None), min_size=1,
                           max_size=2).flatmap(
    lambda keys: st.fixed_dictionaries({key: KEYS[key] for key in keys}))


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from(["run", "sweep"]), values=SETTINGS)
def test_any_setting_exits_0_or_is_a_config_error(tmp_path_factory, command, values):
    csv = tmp_path_factory.getbasetemp() / "fuzz.csv"
    argv = [command, *BASE, "--csv", str(csv), *(f"--{k}={v}" for k, v in values.items())]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "Traceback" not in err
    if (values.get("vocab_size") in HUGE or at_least(values, "gamma", LONG_GAMMA)
            or at_least(values, "max_tokens", LONG_OUTPUT)):
        assert code == 2, (code, err)
    if code == 0:
        assert ("sample 0:" if command == "run" else "wrote ") in out
    else:
        assert code == 2, (code, err)
        assert err.startswith("config error: "), err
        assert "sample 0:" not in out
