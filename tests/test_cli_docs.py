"""The documented command lines parse under the real CLI parser.

Every concrete ``python -m repro ...`` line in the ``repro.cli`` module
docstring and in the fenced blocks of README.md and ``docs/*.md`` must
parse under :func:`repro.cli.build_parser`, so a renamed or deleted
command or flag cannot linger in the docs.  Synopsis lines (those with a
``<placeholder>``, an ``[optional]`` part, a ``|`` alternative or
``...``) are skipped.
"""

import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
_PREFIX = ["python", "-m", "repro"]
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
_SYNOPSIS = re.compile(r"<|\[|\||\.\.\.")


def _command_lines(text):
    """Each ``python -m repro`` line's argv, continuation lines joined."""
    for line in text.replace("\\\n", " ").splitlines():
        if not line.lstrip().startswith(" ".join(_PREFIX) + " "):
            continue
        argv = shlex.split(line, comments=True)[len(_PREFIX):]
        if not any(_SYNOPSIS.search(token) for token in argv):
            yield argv


def _documented_commands():
    sources = [("repro/cli.py", repro.cli.__doc__)]
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        blocks = _FENCE.findall(path.read_text(encoding="utf-8"))
        sources.append((str(path.relative_to(ROOT)), "\n".join(blocks)))
    return [
        pytest.param(argv, id=f"{name}: {' '.join(argv)}")
        for name, text in sources
        for argv in _command_lines(text)
    ]


_COMMANDS = _documented_commands()


def test_docs_name_commands():
    sources = {param.id.split(":")[0] for param in _COMMANDS}
    assert {"repro/cli.py", "README.md"} <= sources


@pytest.mark.parametrize("argv", _COMMANDS)
def test_documented_command_parses(argv):
    args = build_parser().parse_args(argv)
    assert callable(args.fn)
