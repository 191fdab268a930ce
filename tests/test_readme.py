"""README's CLI block stays runnable, and its table of config keys true.

Every ``draftwire`` line of the ``sh`` block under ``## CLI`` is parsed by
``cli.build_parser``, merged by ``cli._resolve`` and typed by
``RunConfig.from_mapping``, in order. The lines that use the recording
directory, the trace-record -> trace-replay -> run chain, are run end to
end with that directory moved under ``tmp_path``. The sweeps and
``launch-demo`` take seconds, and two lines need live workers, so those
lines are only resolved. Each default in the "Config keys worth knowing"
table is checked against ``config.DEFAULTS``.
"""

import re
import shlex
from pathlib import Path

from draftwire import cli
from draftwire.config import DEFAULTS, RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"
RECORDING = "/tmp/tr"


def cli_lines():
    """The argv of each ``draftwire`` line of README's CLI block."""
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [shlex.split(line)[1:] for line in block.group(1).splitlines()
            if line.startswith("draftwire ")]


def test_cli_block_resolves_and_its_trace_chain_runs(tmp_path, capsys):
    trace_dir = tmp_path / "tr"
    parser = cli.build_parser()
    chain = []
    for argv in cli_lines():
        if any(arg.startswith(RECORDING) for arg in argv):
            argv = [arg.replace(RECORDING, str(trace_dir), 1) for arg in argv]
            chain.append(argv[0])
            assert cli.main(argv) == 0, argv
        else:
            RunConfig.from_mapping(cli._resolve(parser.parse_args(argv)))
    assert chain == ["trace-record", "trace-replay", "run"]
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines() if line.startswith("sample 0:"))
    assert line.split()[2:] == (trace_dir / "transcript.txt").read_text().split()


def test_config_keys_table_gives_the_defaults():
    section = re.search(r"^### Config keys worth knowing\n(.*?)^#", README.read_text(), re.M | re.S)
    table = dict(re.findall(r"^\| `(\w+)` \| `?([^|`]*?)`? \|", section.group(1), re.M))
    assert table
    assert table == {key: DEFAULTS[key] for key in table}
