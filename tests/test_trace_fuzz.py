"""``draftwire trace-replay`` fuzzed over damaged recordings, in-process.

One recording at |V| = 16, gamma = 2 is made once. Each example copies it,
applies one drawn mutation and replays the copy through ``cli.main``: a
flipped byte in a prefix hash or a row of a trace file, a truncated or
deleted file, or an edited or swapped token or line of ``drafts.txt`` or
``transcript.txt``.

Every outcome is exit 0, exit 1 with a ``trace error:`` line, or exit 2
with a ``config error:`` line: never an exception out of ``main`` and
never a ``worker failure:``. A changed prefix hash, draft token or
transcript token never exits 0. The one exception is the transcript's
last token: no recorded row answers a prefix that holds it, so nothing
in a recording can check it.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftwire import cli

TRACES = ("draft.trace", "worker_0.trace", "worker_1.trace")
TEXTS = ("drafts.txt", "transcript.txt")
FILES = (*TRACES, *TEXTS, "meta.cfg")
HEADER_BYTES = 14


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """The recorded files, and the one directory every example replays from.

    The copies' ``meta.cfg`` names that directory, so every example draws
    from files of the same sizes.
    """
    trace_dir = tmp_path_factory.mktemp("recording")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["trace-record", "--trace_dir", str(trace_dir), "--vocab_size", "16",
                         "--gamma", "2", "--k", "full", "--max_tokens", "12",
                         "--samples", "1"]) == 0
    replay_dir = tmp_path_factory.mktemp("replay")
    files = {name: (trace_dir / name).read_bytes() for name in FILES}
    files["meta.cfg"] = files["meta.cfg"].replace(str(trace_dir).encode(),
                                                  str(replay_dir).encode())
    return replay_dir, files


def token_lines(files, name):
    return [line.split() for line in files[name].decode().splitlines()]


def joined(lines):
    return "".join(" ".join(tokens) + "\n" for tokens in lines).encode()


def value(token):
    """A token's integer value as the reader parses it; None if it has none."""
    try:
        return int(token)
    except ValueError:
        return None


def flip_hash(data, files):
    return flip(data, files, hashes=True)


def flip_row(data, files):
    return flip(data, files, hashes=False)


def flip(data, files, *, hashes):
    name = data.draw(st.sampled_from(TRACES))
    buf = bytearray(files[name])
    rows_at = HEADER_BYTES + 8 * int.from_bytes(buf[10:14], "little")
    at = data.draw(st.integers(HEADER_BYTES, rows_at - 1) if hashes
                   else st.integers(rows_at, len(buf) - 1))
    buf[at] ^= data.draw(st.integers(1, 255))
    files[name] = bytes(buf)
    return hashes  # every row is read at its prefix: a changed hash never matches


def truncate(data, files):
    name = data.draw(st.sampled_from(FILES))
    files[name] = files[name][:data.draw(st.integers(0, len(files[name]) - 1))]
    # a trace file's size is checked; cutting a text file's last newline changes nothing
    return name in TRACES


def delete(data, files):
    files[data.draw(st.sampled_from(FILES))] = None
    return True


def edit_token(data, files):
    name = data.draw(st.sampled_from(TEXTS))
    lines = token_lines(files, name)
    i = data.draw(st.integers(0, len(lines) - 1))
    j = data.draw(st.integers(0, len(lines[i]) - 1))
    old = lines[i][j]
    lines[i][j] = data.draw(st.one_of(st.integers(-2, 20).map(str),
                                      st.text("0123456789+-_x.", min_size=1, max_size=3)))
    files[name] = joined(lines)
    last = name == "transcript.txt" and (i, j) == (len(lines) - 1, len(lines[i]) - 1)
    return value(lines[i][j]) != int(old) and not last


def swap_tokens(data, files):
    name = data.draw(st.sampled_from(TEXTS))
    lines = token_lines(files, name)
    i = data.draw(st.integers(0, len(lines) - 1))
    j, k = data.draw(st.lists(st.integers(0, len(lines[i]) - 1), min_size=2, max_size=2,
                              unique=True))
    lines[i][j], lines[i][k] = lines[i][k], lines[i][j]
    files[name] = joined(lines)
    return lines[i][j] != lines[i][k]


def edit_line(data, files):
    name = data.draw(st.sampled_from(TEXTS))
    lines = token_lines(files, name)
    i = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["delete", "repeat", "swap"]))
    if how == "delete":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    else:
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[k] = lines[k], lines[i]
    files[name] = joined(lines)
    return how != "swap" or lines[i] != lines[k]


MUTATIONS = [flip_hash, flip_row, truncate, delete, edit_token, swap_tokens, edit_line]


@settings(max_examples=60, deadline=None)
@given(mutate=st.sampled_from(MUTATIONS), data=st.data())
def test_damaged_recording_exits_0_or_with_a_typed_error(recording, mutate, data):
    trace_dir, files = recording
    files = dict(files)
    must_fail = mutate(data, files)
    for name, content in files.items():
        path = trace_dir / name
        if content is None:
            path.unlink(missing_ok=True)
        else:
            path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["trace-replay", "--config", str(trace_dir / "meta.cfg"), "--k", "4"])
    err = err.getvalue()
    if code == 0:
        assert not must_fail, (mutate.__name__, out.getvalue())
    elif code == 1:
        assert err.startswith("trace error: "), err
    else:
        assert code == 2, (code, err)
        assert err.startswith("config error: "), err
