"""README's examples stay runnable: a renamed flag or function fails here.

Every `rank2cluster ...` line of the command block is parsed with the CLI's
own parser (only parsed: three of them run the whole verify grid), and the
library sketch runs as written.
"""
import re
import shlex
from pathlib import Path

from rank2cluster import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block_after(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_command_examples_parse():
    lines = [
        line for line in _block_after("Command line", "sh").splitlines()
        if line.startswith("rank2cluster ")
    ]
    assert len(lines) == 8
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_library_sketch_runs():
    exec(compile(_block_after("Library sketch", "python"), "README.md", "exec"), {})
