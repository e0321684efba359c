"""The commands README.md shows must still run: every `softgamma ...` line
parses with the CLI's own parser, and every `python3 <path>` line names a
file in the repository."""

import shlex
from pathlib import Path

import pytest

from softgamma.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
LINES = [line.strip() for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()]
CLI_LINES = [line for line in LINES if line.startswith("softgamma ")]


def test_readme_shows_cli_commands():
    assert CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README line does not parse: {line}")


def test_python3_lines_name_existing_files():
    paths = [shlex.split(line, comments=True)[1] for line in LINES if line.startswith("python3 ")]
    assert [path for path in paths if not (ROOT / path).is_file()] == []
