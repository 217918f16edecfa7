import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassmult
from grassmult import cli, groebner
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


@pytest.mark.parametrize(
    "points",
    ["7,8 3,1 2,4 5,2", "3,1 5,2 5,2 4,1"],
    ids=["mixed", "positive"],
)
def test_brsk_json_with_positive_points_roundtrips_through_rbrsk(tmp_path, capsys, points):
    """rbrsk inverts the negative rows and, through iota, the positive
    rows of what brsk prints."""
    assert main(["brsk", "--pairs", points, "--json"]) == 0
    path = tmp_path / "bitab.json"
    path.write_text(capsys.readouterr().out)
    assert main(["rbrsk", "--input", str(path), "--json"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back == sorted([int(x) for x in p.split(",")] for p in points.split())


def test_empty_pairs_are_the_empty_multiset(tmp_path, capsys):
    assert main(["brsk", "--pairs", "", "--json"]) == 0
    out = capsys.readouterr().out
    assert out == '{"P": [], "Q": []}\n'
    path = tmp_path / "bitab.json"
    path.write_text(out)
    assert main(["rbrsk", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "\n"
    assert main(["canonicalize", "--pairs", ""]) == 0
    assert capsys.readouterr().out == "\n"


def test_rbrsk_refuses_a_positive_row_above_a_negative_row(tmp_path, capsys):
    path = tmp_path / "bitab.json"
    path.write_text(json.dumps({"P": [[3], [1]], "Q": [[1], [2]]}))
    assert main(["rbrsk", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: expected a nonvanishing semistandard bitableau\n"


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


MIXED = "7,8 2,8 6,7 3,1"


def test_brsk_and_rbrsk_json_bytes(tmp_path, capsys):
    """The exact bytes that brsk --json, brsk --trace and rbrsk --json
    write for a mixed multiset."""
    trace = tmp_path / "steps.jsonl"
    assert main(["brsk", "--pairs", MIXED, "--json", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert out == '{"P": [[2, 6], [7], [3]], "Q": [[7, 8], [8], [1]]}\n'
    assert trace.read_text() == (
        '{"sign": -1, "pair": [7, 8], "route": [[1, 1]], "new_box": [1, 1], "P": [[7]], '
        '"Q": [[8]]}\n'
        '{"sign": -1, "pair": [2, 8], "route": [[1, 1], [2, 1]], "new_box": [2, 1], "P": [[2], '
        '[7]], "Q": [[8], [8]]}\n'
        '{"sign": -1, "pair": [6, 7], "route": [[1, 2]], "new_box": [1, 2], "P": [[2, 6], [7]], '
        '"Q": [[7, 8], [8]]}\n'
        '{"sign": 1, "pair": [1, 3], "route": [[1, 1]], "new_box": [1, 1], "P": [[1]], '
        '"Q": [[3]]}\n'
    )
    bitab = tmp_path / "bitab.json"
    bitab.write_text(out)
    assert main(["rbrsk", "--input", str(bitab), "--json"]) == 0
    assert capsys.readouterr().out == "[[2, 8], [3, 1], [6, 7], [7, 8]]\n"


def test_mult(capsys):
    assert main(["mult"] + NINE) == 0
    assert capsys.readouterr().out == "6\n"


def test_paths_render(capsys):
    assert main(["paths"] + NINE + ["--render"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("6 families\n")
    assert out.count("family ") == 6
    assert out.count("x") + out.count("*") == 6 * 4  # one mark per anchor per family


PATHS_NINE_JSON = (
    '{"count": 6, "families": [{"3,1": [[3, 1], [2, 1]], "2,8": [[2, 5], [2, 6], [2, 8], [3, 8], '
    '[4, 8], [7, 8]], "3,6": [[3, 5], [3, 6], [4, 6]], "9,5": [[9, 8], [9, 6], [9, 5], [7, 5]]}, {'
    '"3,1": [[3, 1], [2, 1]], "2,8": [[2, 5], [2, 6], [2, 8], [3, 8], [4, 8], [7, 8]], '
    '"3,6": [[3, 5], [3, 6], [4, 6]], "9,5": [[9, 8], [9, 6], [7, 6], [7, 5]]}, {'
    '"3,1": [[3, 1], [2, 1]], "2,8": [[2, 5], [2, 6], [2, 8], [3, 8], [4, 8], [7, 8]], '
    '"3,6": [[3, 5], [4, 5], [4, 6]], "9,5": [[9, 8], [9, 6], [9, 5], [7, 5]]}, {'
    '"3,1": [[3, 1], [2, 1]], "2,8": [[2, 5], [2, 6], [2, 8], [3, 8], [4, 8], [7, 8]], '
    '"3,6": [[3, 5], [4, 5], [4, 6]], "9,5": [[9, 8], [9, 6], [7, 6], [7, 5]]}, {'
    '"3,1": [[3, 1], [2, 1]], "2,8": [[2, 5], [2, 6], [3, 6], [3, 8], [4, 8], [7, 8]], '
    '"3,6": [[3, 5], [4, 5], [4, 6]], "9,5": [[9, 8], [9, 6], [9, 5], [7, 5]]}, {'
    '"3,1": [[3, 1], [2, 1]], "2,8": [[2, 5], [2, 6], [3, 6], [3, 8], [4, 8], [7, 8]], '
    '"3,6": [[3, 5], [4, 5], [4, 6]], "9,5": [[9, 8], [9, 6], [7, 6], [7, 5]]}]}'
    "\n"
)


def test_paths_json(capsys):
    assert main(["paths"] + NINE + ["--json"]) == 0
    assert capsys.readouterr().out == PATHS_NINE_JSON


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


def test_count_exits_1_on_a_mismatch(monkeypatch, capsys):
    """A standard count off by one in degree 2: that row alone reads NO,
    the whole table still prints, and the exit status is 1."""
    real = cli.count_standard_monomials
    monkeypatch.setattr(
        cli,
        "count_standard_monomials",
        lambda *args: [c + (m == 2) for m, c in enumerate(real(*args))],
    )
    argv = ["count", "--n", "4", "--d", "2", "--alpha", "1,2", "--beta", "1,4",
            "--gamma", "3,4", "--mmax", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines() == [
        "m\tmonomials\tstandard\tequal",
        "0\t1\t1\tyes",
        "1\t4\t4\tyes",
        "2\t10\t11\tNO",
        "3\t20\t20\tyes",
    ]


def test_count_caps_the_face_search_above_the_grid_cap(capsys):
    """The full Grassmannian at n = 12, d = 6 bounds every subset of its
    36 grid points, 2^36 faces; counting up to degree 2 needs the faces
    of at most two points, C(35 + m, m) monomials of each degree m."""
    argv = ["count", "--n", "12", "--d", "6", "--alpha", "1,2,3,4,5,6",
            "--beta", "1,3,5,7,9,11", "--gamma", "7,8,9,10,11,12", "--mmax", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["m\tmonomials\tstandard\tequal"] + [
        "%d\t%d\t%d\tyes" % (m, math.comb(35 + m, m), math.comb(35 + m, m)) for m in range(3)
    ]


GOLDEN_TRIPLES = [
    (["--n", "6", "--d", "3", "--alpha", "1,2,4", "--beta", "3,5,6", "--gamma", "4,5,6"],
     [1, 9, 44, 156, 450]),
    (["--n", "7", "--d", "3", "--alpha", "1,2,4", "--beta", "2,5,6", "--gamma", "4,6,7"],
     [1, 11, 65, 275, 935]),
    (NINE, [1, 17, 152, 951, 4675]),
]


@pytest.mark.parametrize("triple, counts", GOLDEN_TRIPLES)
def test_count_and_verify_golden(capsys, triple, counts):
    """Exact stdout and exit code of count and verify --mmax 4 on three
    triples whose bounds leave some multisets unbounded."""
    assert main(["count"] + triple) == 0
    assert capsys.readouterr().out == "m\tmonomials\tstandard\tequal\n" + "".join(
        "%d\t%d\t%d\tyes\n" % (m, c, c) for m, c in enumerate(counts)
    )
    assert main(["verify"] + triple + ["--mmax", "4"]) == 0
    alpha, beta, gamma = triple[5::2]
    assert capsys.readouterr().out == (
        "alpha=%s beta=%s gamma=%s ok\n1 triples checked, 0 mismatches\n" % (alpha, beta, gamma)
    )


def test_verify_names_a_brsk_failure_when_the_counts_agree(monkeypatch, capsys):
    """Every degree-2 multiset sent to the image of the first one: the
    counts still agree, so the line names brsk's failure rather than a
    degree, and the exit status is 1."""
    real = groebner.bounded_images

    def images(T, grid, m_max):
        first = []
        for U, image in real(T, grid, m_max):
            if len(U) == 2:
                first = first or [image]
                image = first[0]
            yield U, image

    monkeypatch.setattr(groebner, "bounded_images", images)
    argv = ["verify", "--alpha", "1,2", "--beta", "3,4", "--gamma", "5,6",
            "--n", "6", "--d", "2", "--mmax", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "alpha=1,2 beta=3,4 gamma=5,6 MISMATCH: brsk is not injective into the bounded standard bitableaux\n"
        "1 triples checked, 1 mismatches\n"
    )


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
    # without --seed, the sample is the one of seed 0
    assert main(argv[:-4] + ["--mmax", "2"]) == 0
    unseeded = capsys.readouterr().out
    assert main(argv[:-4] + ["--seed", "0", "--mmax", "2"]) == 0
    assert capsys.readouterr().out == unseeded
    assert main(argv[:5] + ["--sample", "-2"]) == 2
    assert capsys.readouterr().err == "error: --sample takes a positive number of triples\n"


def test_invalid_richardson_data_exits_two(capsys):
    assert main(["mult", "--n", "9", "--d", "4", "--alpha", "3,6,8,9",
                 "--beta", "1,5,6,8", "--gamma", "1,2,3,5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "alpha <= beta <= gamma" in err
    # a malformed index is refused by argparse, also with status 2
    with pytest.raises(SystemExit, match="^2$"):
        main(["mult"] + NINE[:5] + ["1,x"] + NINE[6:])
    err = capsys.readouterr().err
    assert "argument --alpha" in err
    assert "_parse" not in err


FIVE = ["--n", "5", "--d", "2", "--alpha", "1,3", "--beta", "2,4", "--gamma", "4,5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "3", "--d", "5", "--all-triples"],  # no 5-subsets of 1..3
        ["verify", "--n", "3", "--d", "5", "--sample", "4"],
        ["verify", "--n", "4", "--d", "0", "--all-triples"],
        ["paths", "--n", "9", "--d", "9"] + NINE[4:],
        ["count"] + FIVE + ["--mmax", "-2"],  # no degree to tabulate
        # alpha > beta: refused before the table's header
        ["count", "--n", "5", "--d", "2", "--alpha", "2,4", "--beta", "1,3", "--gamma", "4,5"],
        ["verify"] + FIVE + ["--mmax", "-1"],
        ["count", "--n", "5", "--d", "3"] + FIVE[4:],  # 2-subsets with d = 3
        ["verify", "--n", "5", "--d", "4"] + FIVE[4:],
        ["mult", "--n", "9", "--d", "4", "--alpha", "1,2,3"] + NINE[6:],
        # option values that argparse cannot refuse, or that would be ignored
        ["verify", "--n", "4", "--d", "2", "--sample", "-2"],
        ["verify"] + FIVE + ["--sample", "0"],
        ["verify"] + FIVE + ["--seed", "3"],  # a seed without a sample
    ],
)
def test_out_of_range_dimensions_exit_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("sweep", [["--all-triples"], ["--sample", "3"]])
def test_verify_sweep_takes_no_triple(capsys, sweep):
    """A sweep picks its own triples, so one given with it is refused,
    valid or not."""
    for triple in (FIVE[4:], ["--alpha", "1"], ["--beta", "2,4"]):
        assert main(["verify", "--n", "5", "--d", "2"] + triple + sweep) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, option",
    [
        (["brsk", "--pairs", "1,2", "--input", "no/such/file.json"], "--pairs"),
        (["brsk"], "--pairs --input"),
        (["canonicalize", "--pairs", "1,4", "--input", "no/such/file.json"], "--pairs"),
        (["canonicalize"], "--pairs --input"),
        (["rbrsk"], "--input"),
        (["rbrsk", "--json"], "--input"),
        (["paths"] + NINE + ["--json", "--render"], "--json"),
        (["verify", "--n", "4", "--d", "2", "--all-triples", "--sample", "3"], "--all-triples"),
    ],
)
def test_argparse_refuses_missing_and_clashing_options(capsys, argv, option):
    """The parser states which options are required and which exclude
    each other: it prints its usage and an error line naming the option,
    and exits 2 before any subcommand runs."""
    with pytest.raises(SystemExit, match="^2$"):
        main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: grassmult %s" % argv[0])
    last = captured.err.splitlines()[-1]
    assert last.startswith("grassmult %s: error: " % argv[0]) and option in last, last


def interpreter_env():
    """The environment of a fresh interpreter that imports the grassmult
    package under test."""
    src = str(Path(grassmult.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_interpreter(flags, args, cwd):
    """Run a fresh interpreter with the grassmult package under test."""
    return subprocess.run(
        [sys.executable, *flags, *args], cwd=cwd, env=interpreter_env(), capture_output=True, text=True, timeout=300
    )


# semistandard and negative, so split_parts accepts it, but no multiset
# has it as its image under brsk
NO_PREIMAGE = '{"P": [[1, 2], [1]], "Q": [[2, 3], [3]]}'


def test_rbrsk_refuses_a_bitableau_that_is_not_an_image(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(NO_PREIMAGE)
    assert main(["rbrsk", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: the bitableau is not an image of brsk\n")


def test_cli_under_python_O_matches_a_normal_run(tmp_path):
    """No check the CLI relies on lives in an assert: with asserts
    stripped, output, traces and exit codes stay the same."""
    (tmp_path / "bitab.json").write_text(
        json.dumps({"P": [[1, 2], [2, 3, 4, 7], [6]], "Q": [[7, 8], [4, 6, 7, 8], [7]]})
    )
    (tmp_path / "vanishing.json").write_text(json.dumps({"P": [[1, 9]], "Q": [[2, 5]]}))
    (tmp_path / "no_preimage.json").write_text(NO_PREIMAGE)
    commands = [
        ["brsk", "--pairs", "7,8 2,8 6,7 4,7 1,7 3,6 2,4 3,1 5,2 5,2", "--trace", "steps.jsonl"],
        ["rbrsk", "--input", "bitab.json"],
        ["rbrsk", "--input", "vanishing.json"],
        ["rbrsk", "--input", "no_preimage.json"],
        ["brsk", "--pairs", "1,1"],
        ["verify", "--n", "4", "--d", "2", "--all-triples", "--mmax", "3"],
    ]
    trace = tmp_path / "steps.jsonl"
    codes = []
    for args in commands:
        runs = []
        for flags in ([], ["-O"]):
            proc = run_interpreter(flags, ["-m", "grassmult.cli", *args], tmp_path)
            runs.append((proc.returncode, proc.stdout, proc.stderr, trace.exists() and trace.read_text()))
            trace.unlink(missing_ok=True)
        assert runs[0] == runs[1], args
        codes.append(runs[0][0])
    assert codes == [0, 0, 2, 2, 2, 0]


def test_a_reader_that_closes_the_pipe_early_reads_as_sigpipe(tmp_path):
    """`verify ... | head -1`: a closed stdout exits 141 (128 + SIGPIPE),
    as a shell reports any tool stopped that way, with no traceback,
    not 1, which would read as a verification mismatch."""
    args = ["verify", "--n", "7", "--d", "3", "--all-triples", "--mmax", "1"]
    with subprocess.Popen(
        [sys.executable, "-m", "grassmult.cli", *args],
        cwd=tmp_path, env=interpreter_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        assert proc.stdout.readline() == "alpha=1,2,3 beta=1,2,3 gamma=1,2,3 ok\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=300), "Traceback" in err) == (141, False), err


def test_bounded_insert_refuses_bad_input_under_python_O(tmp_path):
    code = (
        "from grassmult.brsk import brsk, brsk_negative\n"
        "from grassmult.chains import canonicalize\n"
        "from grassmult.tableaux import bounded_insert, reverse_bounded_insert\n"
        "assert False, 'asserts are on'\n"
        "for call, args in [\n"
        "    (bounded_insert, ((), 7, 6)),\n"
        "    (bounded_insert, (((1, 2, 4, 6), (2, 3, 6), (2, 4, 5, 7, 8)), 1, 6)),\n"
        "    (bounded_insert, ((('a',),), 1, 5)),\n"
        "    (bounded_insert, (((1, 3),), '2', 5)),\n"
        "    (reverse_bounded_insert, (((1.5,),), 5, (1, 1))),\n"
        "    (brsk_negative, (((1.5, 3),),)),\n"
        "    (brsk, ((('1', 3),),)),\n"
        "    (canonicalize, (((1.5, 3),),)),\n"
        "]:\n"
        "    try:\n"
        "        call(*args)\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    proc = run_interpreter(["-O"], ["-c", code], tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "refused\n" * 8), proc.stderr


def test_reverse_insert_rows_refuses_bad_input_under_python_O(tmp_path):
    code = (
        "from grassmult.tableaux import reverse_insert_rows\n"
        "assert False, 'asserts are on'\n"
        "for rows, b, i in [([[2, 3], [1]], 5, 2), ([[1, 2], [6]], 5, 2), ([[1, 2], [1, 3]], 5, 1)]:\n"
        "    try:\n"
        "        reverse_insert_rows(rows, b, i)\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    proc = run_interpreter(["-O"], ["-c", code], tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "refused\n" * 3), proc.stderr


@pytest.mark.parametrize("command", ["brsk", "canonicalize"])
@pytest.mark.parametrize("token", ["1,2,3", "1", "1,x", "1.5,2"])
def test_a_malformed_pair_is_named(capsys, command, token):
    assert main([command, "--pairs", "2,4 " + token]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--pairs" in captured.err and repr(token) in captured.err


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
        ("rbrsk", '{"P": [[1]], "Q": [[null]]}'),  # entries must be integers
        ("rbrsk", '{"P": [[1.5]], "Q": [[3]]}'),  # not truncated to 1
        ("rbrsk", '{"P": [[true]], "Q": [[3]]}'),
        ("rbrsk", '{"P": {"12": 0}, "Q": {"34": 0}}'),  # objects are not tableaux
        ("rbrsk", NO_PREIMAGE),  # not an image of brsk
        ("brsk", "[[1.5, 2]]"),
        ("brsk", '[["1", "2"]]'),
        ("rbrsk", '{"P": [[1]], "Q": [[2]], "x": 1.5}'),  # no key beside P and Q
        ("rbrsk", '{"P": [[1]], "Q": [[2]], "x": 1}'),
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


def test_unwritable_trace_exits_two(tmp_path, capsys):
    for trace in (tmp_path / "no" / "such" / "t.jsonl", tmp_path):
        assert main(["brsk", "--pairs", "1,2", "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1


# Malformed command lines: each subcommand with its own flags and a
# foreign one, each flag with values that mix valid, out-of-range and
# unparsable ones, and JSON documents whose entries are mostly small
# integers.  Dimensions stay small, so that a valid command line runs
# quickly.  INPUT, TRACE, MISSING and DIR stand for paths in a temporary
# directory.
SIZES = ["-1", "0", "1", "2", "3", "4", "x"]
INDICES = ["", "1", "2", "1,2", "1,3", "2,4", "3,4", "2,1", "1,1", "0,1", "1,x", "1,2,3"]
PAIRS = ["1,2", "2,1", "1,2 2,1", "3,1 1,3", "4,5 2,3 3,1", "1,1", "1,x", "1,2,3", "1.5,2", ""]
FLAG = ["", "", "x"]  # a value after a store_true flag is a stray argument
VALUES = {
    "--n": SIZES,
    "--d": SIZES,
    "--alpha": INDICES,
    "--beta": INDICES,
    "--gamma": INDICES,
    "--mmax": ["-1", "0", "1", "2", "x"],
    "--sample": ["-2", "0", "3", "x"],
    "--seed": ["0", "7", "x"],
    "--pairs": PAIRS,
    "--input": ["INPUT", "INPUT", "MISSING", "DIR"],
    "--trace": ["TRACE", "MISSING", "DIR"],
    "--json": FLAG,
    "--render": FLAG,
    "--all-triples": FLAG,
}
TRIPLE = ["--n", "--d", "--alpha", "--beta", "--gamma"]
FLAGS = {
    "brsk": ["--pairs", "--input", "--trace", "--json"],
    "rbrsk": ["--input", "--json"],
    "mult": TRIPLE,
    "paths": TRIPLE + ["--render", "--json"],
    "count": TRIPLE + ["--mmax"],
    "verify": TRIPLE + ["--mmax", "--all-triples", "--sample", "--seed"],
    "canonicalize": ["--pairs", "--input", "--json"],
}


def options(flags):
    return st.lists(
        st.one_of([st.tuples(st.just(f), st.sampled_from(VALUES[f])) for f in flags]), max_size=6
    )


def command_line(command):
    """The subcommand, its required --n and --d if it has them, and
    up to six more options."""
    required = [st.tuples(st.just(f), st.sampled_from(VALUES[f])) for f in ("--n", "--d")]
    return st.tuples(
        st.just(command),
        st.tuples(*required) if "--n" in FLAGS[command] else st.just(()),
        options(FLAGS[command] + ["--render"]),
    )


SMALL = st.integers(min_value=-3, max_value=12)
ENTRY = st.one_of(SMALL, SMALL, SMALL, st.none(), st.booleans(), st.floats(-3, 12), st.text(max_size=2))
ROWS = st.lists(st.lists(ENTRY, max_size=4), max_size=3)
DOCUMENTS = st.one_of(
    st.fixed_dictionaries({"P": ROWS, "Q": ROWS}),
    st.lists(st.lists(ENTRY, max_size=3), max_size=5),
    st.recursive(
        ENTRY,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from("PQx"), inner),
        max_leaves=12,
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FLAGS)).flatmap(command_line), DOCUMENTS)
def test_exit_code_contract(tmp_path_factory, line, document):
    """Every command line exits 0, 1 or 2 and never shows a traceback."""
    command, required, optional = line
    home = tmp_path_factory.getbasetemp()
    stand_in = {
        "INPUT": str(home / "input.json"),
        "TRACE": str(home / "trace.jsonl"),
        "MISSING": str(home / "missing" / "file"),
        "DIR": str(home),
    }
    (home / "input.json").write_text(json.dumps(document))
    argv = [command] + [stand_in.get(t, t) for pair in (*required, *optional) for t in pair if t]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse refuses the command line
            code = stop.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


def test_canonicalize(capsys):
    assert main(["canonicalize", "--pairs", "1,4 2,5 3,7 6,8"]) == 0
    assert capsys.readouterr().out == "1,8 2,5 3,4 6,7\n"
    assert main(["canonicalize", "--pairs", "1,4 2,5 3,7 6,8", "--json"]) == 0
    assert capsys.readouterr().out == "[[1, 8], [2, 5], [3, 4], [6, 7]]\n"


def test_main_builds_the_parser_once(monkeypatch, capsys):
    """Later calls reuse the first call's parser, and a flag given to one
    call does not carry over to the next."""
    built = []
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or _build_parser())
    argv = ["count"] + FIVE
    assert main(argv + ["--mmax", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert main(argv) == 0  # the default --mmax 4 again
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert main(["mult"] + NINE) == 0
    assert capsys.readouterr().out == "6\n"
    assert built == [1]


def test_run_accepts_a_spec_and_stream():
    buf = io.StringIO()
    spec = _build_parser().parse_args(["mult"] + NINE)
    assert run(spec, out=buf) == 0
    assert buf.getvalue() == "6\n"
