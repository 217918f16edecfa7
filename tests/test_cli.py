import io
import json

import pytest

from grassmult.cli import _build_parser, main, run

NINE = ["--n", "9", "--d", "4", "--alpha", "1,2,3,5", "--beta", "1,5,6,8", "--gamma", "3,6,8,9"]


def test_brsk_text_output(capsys):
    assert main(["brsk", "--pairs", "7,8 2,8 6,7 4,7 1,7 3,6 2,4"]) == 0
    out = capsys.readouterr().out
    assert out == "P:\n1 2\n2 3 4 7\n6\nQ:\n7 8\n4 6 7 8\n7\n"


def test_brsk_json_roundtrips_through_rbrsk(tmp_path, capsys):
    assert main(["brsk", "--pairs", "7,8 2,8 6,7 4,7 1,7 3,6 2,4", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["P"] == [[1, 2], [2, 3, 4, 7], [6]]
    assert blob["Q"] == [[7, 8], [4, 6, 7, 8], [7]]
    path = tmp_path / "bitab.json"
    path.write_text(json.dumps(blob))
    assert main(["rbrsk", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1,7 2,4 2,8 3,6 4,7 6,7 7,8"


def test_brsk_trace(tmp_path, capsys):
    trace = tmp_path / "steps.jsonl"

    def steps(pairs_text):
        assert main(["brsk", "--pairs", pairs_text, "--trace", str(trace)]) == 0
        capsys.readouterr()
        return [json.loads(line) for line in trace.read_text().splitlines()]

    lines = steps("7,8 2,8 6,7")
    assert [step["pair"] for step in lines] == [[7, 8], [2, 8], [6, 7]]
    assert set(lines[0]) == {"sign", "pair", "route", "new_box", "P", "Q"}
    assert lines[-1]["P"] == [[2, 6], [7]]
    # the positive half is traced as brsk runs it: (2,1) is inserted swapped, as (1,2)
    lines = steps("2,1 1,2")
    assert [(step["sign"], step["pair"]) for step in lines] == [(-1, [1, 2]), (1, [1, 2])]
    assert [step["sign"] for step in steps("2,1")] == [1]


def test_mult(capsys):
    assert main(["mult"] + NINE) == 0
    assert capsys.readouterr().out == "6\n"


def test_paths_render(capsys):
    assert main(["paths"] + NINE + ["--render"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("6 families\n")
    assert out.count("family ") == 6
    assert out.count("x") + out.count("*") == 6 * 4  # one mark per anchor per family


def test_paths_json(capsys):
    assert main(["paths"] + NINE + ["--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["count"] == 6 and len(blob["families"]) == 6
    assert set(blob["families"][0]) == {"2,8", "3,6", "3,1", "9,5"}


def test_count_table(capsys):
    argv = ["count", "--n", "4", "--d", "2", "--alpha", "1,2", "--beta", "1,4",
            "--gamma", "3,4", "--mmax", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "m\tmonomials\tstandard\tequal",
        "0\t1\t1\tyes",
        "1\t4\t4\tyes",
        "2\t10\t10\tyes",
        "3\t20\t20\tyes",
    ]


def test_verify_all_triples(capsys):
    argv = ["verify", "--n", "4", "--d", "2", "--all-triples", "--mmax", "2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "50 triples checked, 0 mismatches"
    assert all(line.endswith(" ok") for line in lines[:-1])


def test_verify_sampled_is_deterministic(capsys):
    argv = ["verify", "--n", "5", "--d", "2", "--sample", "5", "--seed", "3", "--mmax", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[-1] == "5 triples checked, 0 mismatches"


def test_invalid_richardson_data_exits_two(capsys):
    assert main(["mult", "--n", "9", "--d", "4", "--alpha", "3,6,8,9",
                 "--beta", "1,5,6,8", "--gamma", "1,2,3,5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "alpha <= beta <= gamma" in err
    # a malformed index is refused by argparse, also with status 2
    with pytest.raises(SystemExit, match="^2$"):
        main(["mult"] + NINE[:5] + ["1,x"] + NINE[6:])
    assert "argument --alpha" in capsys.readouterr().err


FIVE = ["--n", "5", "--d", "2", "--alpha", "1,3", "--beta", "2,4", "--gamma", "4,5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "3", "--d", "5", "--all-triples"],  # no 5-subsets of 1..3
        ["verify", "--n", "3", "--d", "5", "--sample", "4"],
        ["verify", "--n", "4", "--d", "0", "--all-triples"],
        ["paths", "--n", "9", "--d", "9"] + NINE[4:],
        ["count"] + FIVE + ["--mmax", "-2"],  # no degree to tabulate
        ["verify"] + FIVE + ["--mmax", "-1"],
        ["count", "--n", "5", "--d", "3"] + FIVE[4:],  # 2-subsets with d = 3
        ["verify", "--n", "5", "--d", "4"] + FIVE[4:],
        ["mult", "--n", "9", "--d", "4", "--alpha", "1,2,3"] + NINE[6:],
    ],
)
def test_out_of_range_dimensions_exit_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_rbrsk_requires_input(capsys):
    assert main(["rbrsk"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_diagonal_pair_exits_two(capsys):
    assert main(["brsk", "--pairs", "1,1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, content",
    [
        ("rbrsk", None),  # no such file
        ("rbrsk", '{"Q": [[2]]}'),  # no P
        ("rbrsk", "[[1, 2]]"),  # not an object
        ("brsk", "5"),  # not a list of pairs
    ],
)
def test_unreadable_input_exits_two(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_canonicalize(capsys):
    assert main(["canonicalize", "--pairs", "1,4 2,5 3,7 6,8"]) == 0
    assert capsys.readouterr().out == "1,8 2,5 3,4 6,7\n"
    assert main(["canonicalize", "--pairs", "1,4 2,5 3,7 6,8", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [[1, 8], [2, 5], [3, 4], [6, 7]]


def test_run_accepts_a_spec_and_stream():
    buf = io.StringIO()
    spec = _build_parser().parse_args(["mult"] + NINE)
    assert run(spec, out=buf) == 0
    assert buf.getvalue() == "6\n"
