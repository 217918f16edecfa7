"""The README's examples run as written: the python session as a
doctest, and each grassmult command line through the CLI."""

import doctest
import json
import re
import shlex
from pathlib import Path

import grassmult
from grassmult.brsk import brsk
from grassmult.cli import main
from grassmult.multisets import pairs

README = Path(grassmult.__file__).parents[2] / "README.md"


def fenced_blocks(language):
    """The bodies of the README's fenced blocks tagged with language
    ("" for untagged ones)."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.S | re.M)
    return [body for tag, body in blocks if tag == language]


def test_python_example_runs_as_a_doctest():
    (body,) = fenced_blocks("python")
    test = doctest.DocTestParser().get_doctest(body, {}, "README", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples)) and test.examples


def command_examples():
    """(argv, expected stdout or None) for each grassmult command in the
    README, continuation lines joined and optional [...] parts kept.  A
    block with lines that are not commands holds one command followed
    by its output."""
    examples = []
    for body in fenced_blocks(""):
        lines = body.replace("\\\n", "").splitlines()
        commands = [line for line in lines if line.startswith("grassmult ")]
        if not commands:
            continue
        output = [line for line in lines if not line.startswith("grassmult ")]
        expected = "".join(line + "\n" for line in output) if output else None
        assert expected is None or len(commands) == 1, body
        for line in commands:
            examples.append((shlex.split(re.sub(r"\[(.*?)\]", r"\1", line))[1:], expected))
    return examples


def test_command_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    P, Q = brsk(pairs([(7, 8), (2, 8), (6, 7), (4, 7), (1, 7), (3, 6), (2, 4)]))
    (tmp_path / "bitableau.json").write_text(json.dumps({"P": P, "Q": Q}))
    examples = command_examples()
    assert {argv[0] for argv, _ in examples} == {
        "brsk", "rbrsk", "mult", "paths", "count", "verify", "canonicalize"
    }
    for argv, expected in examples:
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "", argv
        if expected is not None:
            assert captured.out == expected, argv
    assert [argv[:3] for argv, expected in examples if expected] == [["mult", "--n", "40"]]
    assert (tmp_path / "steps.jsonl").read_text().count("\n") == 7
