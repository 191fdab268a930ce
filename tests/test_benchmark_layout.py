"""The benchmark checks uplink bytes against its own copy of the frame layout.

``perfbench/checks.py`` is loaded by path and its layout must agree with
the program's, so a wire change that would make the benchmark report
``correct: false`` fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

from draftwire.transport import FRAME_HEADER, expected_upload_bytes

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frame_header_size_agrees():
    assert load_checks().FRAME_HEADER_BYTES == FRAME_HEADER.size


@pytest.mark.parametrize("gamma", [1, 4])
@pytest.mark.parametrize("k", [1, 64, 512])
def test_upload_frame_bytes_agree(gamma, k):
    assert load_checks().upload_frame_bytes(gamma, k) == expected_upload_bytes(gamma, k)
