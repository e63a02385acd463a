"""The README's examples run as written: its library snippet and the CLI
examples on its own ``circle.mac``."""

import contextlib
import io
import re
from pathlib import Path

from macaulay import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(head):
    """The body of the first fenced code block after ``head`` in the README."""
    start = README.index(head)
    return re.compile(r"```\w*\n(.*?)```", re.S).search(README, start)[1]


def test_library_example_prints_its_normal_form():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("## Library"), {})
    assert out.getvalue() == "1/2*x1^2 - 1/2*x2^2 - 1/2\n"


def test_cli_examples_on_the_readme_circle(tmp_path, capsys):
    problem = _block("## CLI")
    assert problem.startswith("# circle.mac\n")
    path = tmp_path / "circle.mac"
    path.write_text(problem, encoding="utf-8")

    def run(*argv):
        assert cli.main([argv[0], str(path), *argv[1:]]) == 0
        return capsys.readouterr().out.splitlines()

    reduced = run("basis", "--reduced")
    assert [line.split(": ", 1)[1] for line in reduced if line.startswith("  deg ")] == [
        "x1^2 + x2^2 - 1",
        "x2^4 - x2^2 + 1",
    ]
    assert "criterion: pass" in run("verify", "--grading", "total")
    failing = run("verify")
    assert "criterion: fail" in failing and "witness combination: x2^4 - x2^2 + 1" in failing
