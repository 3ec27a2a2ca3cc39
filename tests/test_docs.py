"""README examples run as written: the library block prints its commented
results, and every command-line transcript without an elided line equals
the CLI's output."""

import contextlib
import io
import pathlib
import re

import pytest

from cutforge.cli import main

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(r"```%s\n(.*?)```" % lang, README, re.S)


def _complete_transcripts():
    """(argv, output lines) of each `$ cutforge ...` transcript that elides
    no line."""
    out = []
    for block in _blocks("text"):
        for chunk in block.strip().split("\n\n"):
            command, *lines = chunk.splitlines()
            if not any("..." in line for line in lines):
                out.append((command.split()[2:], lines))
    return out


COMPLETE = _complete_transcripts()


def test_library_block_prints_its_comments():
    (block,) = _blocks("python")
    want = [
        line.partition("#")[2].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(block, {})
    assert buf.getvalue().splitlines() == want
    assert len(want) == 2


def test_split_transcript_is_among_the_complete_ones():
    assert ["split", "--group", "free_product:2,2"] in [a for a, _l in COMPLETE]


@pytest.mark.parametrize(
    "argv, lines", COMPLETE, ids=[" ".join(a) for a, _l in COMPLETE]
)
def test_transcript_equals_cli_output(argv, lines, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines
