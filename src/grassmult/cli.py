"""Command-line front end: one binary with subcommands for the
correspondence, multiplicities, path families, and the counting
verification.  Exit code 2 flags invalid input, 1 a mismatch found by
count or verify, 0 success, and 141 (128 + SIGPIPE) a reader that
closed stdout early, as in `grassmult verify ... | head -1`.

Each subcommand parses its arguments, makes one library call per
result, and prints.  argparse refuses options that are missing or do
not go together; the library raises ValueError on a bad triple,
dimension, degree bound, multiset or bitableau, and verify on the
option rules that argparse cannot state.  run turns a ValueError into
one error line and exit 2.
"""

import argparse
import json
import os
import random
import sys

from .brsk import brsk, brsk_trace, rbrsk, sign_halves
from .chains import canonicalize
from .grassmannian import richardson, triples
from .groebner import count_monomials_outside_initial, count_standard_monomials, verify_groebner
from .multiplicity import enumerate_families, multiplicity, render_family
from .multisets import pairs, pairs_from_json
from .tableaux import render, tableau_from_json


def index_set(text):
    """An index set such as 1,2,4; argparse names it in its refusals."""
    return tuple(int(x) for x in text.split(",") if x)


def _parse_pairs(text):
    out = []
    for tok in text.split():
        try:
            e, f = map(int, tok.split(","))
        except ValueError:
            raise ValueError("--pairs takes e,f pairs of integers, not %r" % tok) from None
        out.append((e, f))
    return pairs(out)


def _read_input(path, parse, expected):
    """Parse the JSON file at path.  An unreadable file, or a document
    that parse refuses, by its shape or by an entry that is not an
    integer, is invalid input: a ValueError, hence exit 2."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        return parse(data)
    except OSError as err:
        raise ValueError("cannot read %s: %s" % (path, err.strerror)) from err
    except (KeyError, TypeError, ValueError, RecursionError) as err:
        raise ValueError("%s is not %s" % (path, expected)) from err


def _load_multiset(ns):
    if ns.pairs is not None:
        return _parse_pairs(ns.pairs)
    return _read_input(ns.input, pairs_from_json, "a JSON list of integer [e, f] pairs")


def _bitableau_from_json(data):
    """A bitableau from a JSON object with keys P and Q alone: no entry goes unread."""
    if set(data) != {"P", "Q"}:
        raise ValueError("a bitableau document has the keys P and Q")
    return tableau_from_json(data["P"]), tableau_from_json(data["Q"])


def _pairs_text(U):
    return " ".join("%d,%d" % p for p in U)


def _write_trace(U, path):
    """One JSON line per insertion, tagged with the sign of its half.
    The positive half is inserted as brsk runs it, on the swapped
    points, so its steps show swapped pairs and tableaux.  A path that
    cannot be written is invalid input."""
    try:
        fh = open(path, "w")
    except OSError as err:
        raise ValueError("cannot write %s: %s" % (path, err.strerror)) from err
    with fh:
        for sgn, half in zip((-1, 1), sign_halves(U)):
            for pair, (route, new_box), P, Q in brsk_trace(half):
                step = {"sign": sgn, "pair": pair, "route": route, "new_box": new_box, "P": P, "Q": Q}
                fh.write(json.dumps(step) + "\n")


def _cmd_brsk(ns, out):
    U = _load_multiset(ns)
    P, Q = brsk(U)
    if ns.trace:
        _write_trace(U, ns.trace)
    if ns.json:
        print(json.dumps({"P": P, "Q": Q}), file=out)
    else:
        print("P:\n%s\nQ:\n%s" % (render(P), render(Q)), file=out)
    return 0


def _cmd_rbrsk(ns, out):
    B = _read_input(ns.input, _bitableau_from_json, "a JSON object with integer tableaux P and Q")
    U = rbrsk(B)
    if ns.json:
        print(json.dumps(U), file=out)
    else:
        print(_pairs_text(U), file=out)
    return 0


def _cmd_mult(ns, out):
    print(multiplicity(ns.alpha, ns.beta, ns.gamma, ns.n, ns.d), file=out)
    return 0


def _cmd_paths(ns, out):
    Ttil, Wtil, grid = richardson(ns.alpha, ns.beta, ns.gamma, ns.n, ns.d)
    families = enumerate_families(Ttil, Wtil, grid)
    if ns.json:
        blob = [{"%d,%d" % r: path for r, path in fam.items()} for fam in families]
        print(json.dumps({"count": len(families), "families": blob}), file=out)
        return 0
    print("%d families" % len(families), file=out)
    if ns.render:
        for k, fam in enumerate(families, 1):
            print("family %d:" % k, file=out)
            print(render_family(fam, grid), file=out)
    return 0


def _cmd_count(ns, out):
    bounds = richardson(ns.alpha, ns.beta, ns.gamma, ns.n, ns.d)
    bounded = count_monomials_outside_initial(*bounds, ns.mmax)
    standard = count_standard_monomials(*bounds, ns.mmax)
    print("m\tmonomials\tstandard\tequal", file=out)
    for m, (a, b) in enumerate(zip(bounded, standard)):
        print("%d\t%d\t%d\t%s" % (m, a, b, "yes" if a == b else "NO"), file=out)
    return 0 if bounded == standard else 1


def _cmd_verify(ns, out):
    if ns.sample is None and ns.seed is not None:
        raise ValueError("--seed seeds --sample and is refused without it")
    if ns.sample is not None and ns.sample < 1:
        raise ValueError("--sample takes a positive number of triples")
    if ns.all_triples or ns.sample:
        if ns.alpha or ns.beta or ns.gamma:
            raise ValueError("--all-triples and --sample take no --alpha, --beta or --gamma")
        checked = triples(ns.n, ns.d)
        if ns.sample:
            rng = random.Random(ns.seed or 0)
            checked = rng.sample(checked, min(ns.sample, len(checked)))
    else:
        checked = [(ns.alpha, ns.beta, ns.gamma)]
    bad = 0
    for alpha, beta, gamma in checked:
        report = verify_groebner(*richardson(alpha, beta, gamma, ns.n, ns.d), ns.mmax)
        if not report.counts_equal:
            verdict = "MISMATCH at m=%d" % report.witness_degree
        elif not report.brsk_injective:
            verdict = "MISMATCH: brsk is not injective into the bounded standard bitableaux"
        else:
            verdict = "ok"
        bad += verdict != "ok"
        print(
            "alpha=%s beta=%s gamma=%s %s"
            % (",".join(map(str, alpha)), ",".join(map(str, beta)), ",".join(map(str, gamma)), verdict),
            file=out,
        )
    print("%d triples checked, %d mismatches" % (len(checked), bad), file=out)
    return 1 if bad else 0


def _cmd_canonicalize(ns, out):
    T = canonicalize(_load_multiset(ns))
    if ns.json:
        print(json.dumps(T), file=out)
    else:
        print(_pairs_text(T), file=out)
    return 0


def run(ns, out=None) -> int:
    """Run the subcommand of a parsed namespace, writing to out."""
    out = out or sys.stdout
    try:
        return ns.func(ns, out)
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="grassmult",
        description="Bounded RSK, path families, and fixed-point multiplicities "
        "of Richardson varieties in the Grassmannian.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    def common_triple(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--alpha", type=index_set, default="")
        p.add_argument("--beta", type=index_set, default="")
        p.add_argument("--gamma", type=index_set, default="")

    def multiset_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--pairs")
        source.add_argument("--input")

    p = command("brsk", _cmd_brsk, "run the correspondence on a multiset")
    multiset_source(p)
    p.add_argument("--trace", default="", help="write per-step JSONL trace here")
    p.add_argument("--json", action="store_true")

    p = command("rbrsk", _cmd_rbrsk, "invert the correspondence on a bitableau")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")

    p = command("mult", _cmd_mult, "multiplicity at the fixed point of beta")
    common_triple(p)

    p = command("paths", _cmd_paths, "enumerate disjoint path families")
    common_triple(p)
    form = p.add_mutually_exclusive_group()
    form.add_argument("--render", action="store_true")
    form.add_argument("--json", action="store_true")

    p = command("count", _cmd_count, "tabulate both monomial counts per degree; exit 1 on mismatch")
    common_triple(p)
    p.add_argument("--mmax", type=int, default=4)

    p = command("verify", _cmd_verify, "check the counting identity; exit 1 on mismatch")
    common_triple(p)
    p.add_argument("--mmax", type=int, default=3)
    sweep = p.add_mutually_exclusive_group()
    sweep.add_argument("--all-triples", action="store_true")
    sweep.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, help="seed of --sample (default 0)")

    p = command("canonicalize", _cmd_canonicalize, "canonical twisted chain of a multiset")
    multiset_source(p)
    p.add_argument("--json", action="store_true")
    return parser


# The parser, built on the first call to main and reused by every later
# one in the same process; it holds no state between parses.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        status = run(_PARSER.parse_args(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
