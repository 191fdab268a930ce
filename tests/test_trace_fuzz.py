"""Both readers of a recording fuzzed over damaged copies, in-process.

One recording at |V| = 16, gamma = 2 is made once, and the same recording
at |V| = 32. Each example writes a copy of the first to another directory,
applies one drawn mutation, and reads the copy through ``cli.main`` twice:
``trace-replay`` and ``run --k full --mode inprocess``. A mutation flips a
byte in a prefix hash or a row of a trace file, truncates or deletes a
file, edits or swaps a token or line of ``drafts.txt`` or
``transcript.txt``, swaps in a trace file of the 32-token recording, or
moves (nothing is left where it was made) or copies (the original stays
whole) the recording and deletes one file of it, or none.

Every outcome is exit 0, exit 1 with a ``trace error:`` line, or exit 2
with a ``config error:`` line: never an exception out of ``main`` and
never a ``worker failure:``. For ``trace-replay`` a changed prefix hash,
draft token or transcript token never exits 0; the one exception is the
transcript's last token: no recorded row answers a prefix that holds it,
so nothing in a recording can check it. A ``run`` reads no text file, but
a changed prefix hash, a trace file of another width and a deleted or
truncated trace file never let it exit 0 either. A moved or copied
recording with no file deleted exits 0 in both.
"""

import contextlib
import io
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftwire import cli

TRACES = ("draft.trace", "worker_0.trace", "worker_1.trace")
TEXTS = ("drafts.txt", "transcript.txt")
FILES = (*TRACES, *TEXTS, "meta.cfg")
HEADER_BYTES = 14

REPLAY, RUN = "trace-replay", "run"
READERS = {
    REPLAY: ["--k", "4"],
    RUN: ["--k", "full", "--samples", "1", "--mode", "inprocess"],
}


def record(trace_dir, vocab_size):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["trace-record", "--trace_dir", str(trace_dir),
                         "--vocab_size", str(vocab_size), "--gamma", "2", "--k", "full",
                         "--max_tokens", "12", "--samples", "1"]) == 0
    return {name: (trace_dir / name).read_bytes() for name in FILES}


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """Where the recording was made, its files, the files of the same
    recording at |V| = 32, and the directory every copy is written to."""
    made = tmp_path_factory.mktemp("recording") / "made"
    files = record(made, 16)
    wider = record(tmp_path_factory.mktemp("wider"), 32)
    return made, files, wider, tmp_path_factory.mktemp("copy")


@dataclass
class Copy:
    """A damaged copy of the recording: each file's bytes (None: deleted),
    the readers that must not exit 0 on it, whether both must exit 0, and
    whether the recording was moved rather than copied, so that its first
    directory is gone."""

    files: dict
    wider: dict  # the same recording's files at |V| = 32
    must_fail: set = field(default_factory=set)
    intact: bool = False
    moved: bool = False


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


def flip_hash(data, copy):
    flip(data, copy, hashes=True)


def flip_row(data, copy):
    flip(data, copy, hashes=False)


def flip(data, copy, *, hashes):
    name = data.draw(st.sampled_from(TRACES))
    buf = bytearray(copy.files[name])
    rows_at = HEADER_BYTES + 8 * int.from_bytes(buf[10:14], "little")
    at = data.draw(st.integers(HEADER_BYTES, rows_at - 1) if hashes
                   else st.integers(rows_at, len(buf) - 1))
    buf[at] ^= data.draw(st.integers(1, 255))
    copy.files[name] = bytes(buf)
    if hashes:  # every row is read at its prefix: a changed hash never matches
        copy.must_fail |= {REPLAY, RUN}


def truncate(data, copy):
    name = data.draw(st.sampled_from(FILES))
    copy.files[name] = copy.files[name][:data.draw(st.integers(0, len(copy.files[name]) - 1))]
    # a trace file's size is checked; cutting a text file's last newline changes nothing
    if name in TRACES:
        copy.must_fail |= {REPLAY, RUN}


def delete(data, copy):
    name = data.draw(st.sampled_from(FILES))
    copy.files[name] = None
    copy.must_fail |= {REPLAY} if name in TEXTS else {REPLAY, RUN}


def relocate(data, copy):
    """The recording moved or copied to another directory, and one file of
    it deleted there, or none: every reader reads the files beside the
    copy's meta.cfg, never those where the recording was made."""
    copy.moved = data.draw(st.booleans())
    if data.draw(st.booleans()):
        delete(data, copy)
    else:
        copy.intact = True


def other_width(data, copy):
    name = data.draw(st.sampled_from(TRACES))
    copy.files[name] = copy.wider[name]
    copy.must_fail |= {REPLAY, RUN}


def edit_token(data, copy):
    name = data.draw(st.sampled_from(TEXTS))
    lines = token_lines(copy.files, name)
    i = data.draw(st.integers(0, len(lines) - 1))
    j = data.draw(st.integers(0, len(lines[i]) - 1))
    old = lines[i][j]
    lines[i][j] = data.draw(st.one_of(st.integers(-2, 20).map(str),
                                      st.text("0123456789+-_x.", min_size=1, max_size=3)))
    copy.files[name] = joined(lines)
    last = name == "transcript.txt" and (i, j) == (len(lines) - 1, len(lines[i]) - 1)
    if value(lines[i][j]) != int(old) and not last:
        copy.must_fail.add(REPLAY)


def swap_tokens(data, copy):
    name = data.draw(st.sampled_from(TEXTS))
    lines = token_lines(copy.files, name)
    i = data.draw(st.integers(0, len(lines) - 1))
    j, k = data.draw(st.lists(st.integers(0, len(lines[i]) - 1), min_size=2, max_size=2,
                              unique=True))
    lines[i][j], lines[i][k] = lines[i][k], lines[i][j]
    copy.files[name] = joined(lines)
    if lines[i][j] != lines[i][k]:
        copy.must_fail.add(REPLAY)


def edit_line(data, copy):
    name = data.draw(st.sampled_from(TEXTS))
    lines = token_lines(copy.files, name)
    i = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["delete", "repeat", "swap"]))
    if how == "delete":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    else:
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[k] = lines[k], lines[i]
    copy.files[name] = joined(lines)
    if how != "swap" or lines[i] != lines[k]:
        copy.must_fail.add(REPLAY)


MUTATIONS = [flip_hash, flip_row, truncate, delete, relocate, other_width, edit_token,
             swap_tokens, edit_line]


def read(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(mutate=st.sampled_from(MUTATIONS), data=st.data())
def test_damaged_recording_exits_0_or_with_a_typed_error(recording, mutate, data):
    made, files, wider, trace_dir = recording
    copy = Copy(dict(files), wider)
    mutate(data, copy)
    for name, content in copy.files.items():
        path = trace_dir / name
        if content is None:
            path.unlink(missing_ok=True)
        else:
            path.write_bytes(content)
    away = made.with_name("away")
    if copy.moved:
        made.rename(away)
    try:
        outcomes = {command: read([command, "--config", str(trace_dir / "meta.cfg"), *flags])
                    for command, flags in READERS.items()}
    finally:
        if copy.moved:
            away.rename(made)
    for command, (code, out, err) in outcomes.items():
        assert code == 0 or not copy.intact, (command, err)
        if code == 0:
            assert command not in copy.must_fail, (command, mutate.__name__, out)
        elif code == 1:
            assert err.startswith("trace error: "), (command, err)
        else:
            assert code == 2, (command, code, err)
            assert err.startswith("config error: "), (command, err)
