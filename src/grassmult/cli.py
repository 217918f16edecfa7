"""Command-line front end: one binary with subcommands for the
correspondence, multiplicities, path families, and the counting
verification.  Exit code 2 flags invalid input, 1 a verification
mismatch, 0 success.
"""

import argparse
import json
import random
import sys
from itertools import combinations

from .brsk import brsk, brsk_negative, rbrsk
from .chains import canonicalize
from .grassmannian import beta_grid, build_bound_multisets, index_leq
from .groebner import bounded_multiset_counts, standard_monomial_counts, verify_groebner
from .multiplicity import enumerate_families, multiplicity, render_family
from .multisets import iota, negative_part, pairs, pairs_from_json, pairs_to_json, positive_part
from .tableaux import iota_bitableau, render, split_parts, tableau_from_json, tableau_to_json


def _parse_index(text):
    return tuple(int(x) for x in text.split(",") if x)


def _parse_pairs(text):
    out = []
    for tok in text.split():
        e, f = tok.split(",")
        out.append((int(e), int(f)))
    return pairs(out)


def _integer_entries(data) -> bool:
    """Whether every entry of a JSON document, through its lists and
    objects, is an integer (true and false are not)."""
    if isinstance(data, dict):
        return all(_integer_entries(v) for v in data.values())
    if isinstance(data, list):
        return all(_integer_entries(v) for v in data)
    return type(data) is int


def _read_input(path, parse, expected):
    """Parse the JSON file at path.  An unreadable file, a document of
    the wrong shape, or an entry that is not an integer is invalid
    input: a ValueError, hence exit 2."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not _integer_entries(data):
            raise ValueError("an entry is not an integer")
        return parse(data)
    except OSError as err:
        raise ValueError("cannot read %s: %s" % (path, err.strerror)) from err
    except (KeyError, TypeError, ValueError, RecursionError) as err:
        raise ValueError("%s is not %s" % (path, expected)) from err


def _load_multiset(ns):
    if ns.pairs:
        return _parse_pairs(ns.pairs)
    if ns.input:
        return _read_input(ns.input, pairs_from_json, "a JSON list of integer [e, f] pairs")
    raise ValueError("provide --pairs or --input")


def _bitableau_from_json(data):
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
        for sgn, half in ((-1, negative_part(U)), (1, iota(positive_part(U)))):
            _, trace = brsk_negative(half, keep_trace=True)
            for step in trace:
                fh.write(
                    json.dumps(
                        {
                            "sign": sgn,
                            "pair": list(step.pair),
                            "route": pairs_to_json(step.record.route),
                            "new_box": list(step.record.new_box),
                            "P": tableau_to_json(step.P),
                            "Q": tableau_to_json(step.Q),
                        }
                    )
                    + "\n"
                )


def _cmd_brsk(ns, out):
    U = _load_multiset(ns)
    P, Q = brsk(U)
    if ns.trace:
        _write_trace(U, ns.trace)
    if ns.json:
        print(json.dumps({"P": tableau_to_json(P), "Q": tableau_to_json(Q)}), file=out)
    else:
        print("P:\n%s\nQ:\n%s" % (render(P), render(Q)), file=out)
    return 0


def _cmd_rbrsk(ns, out):
    if not ns.input:
        raise ValueError("rbrsk reads a bitableau from --input (JSON with P and Q)")
    B = _read_input(ns.input, _bitableau_from_json, "a JSON object with integer tableaux P and Q")
    negative, positive = split_parts(B)
    U = pairs(rbrsk(negative) + iota(rbrsk(iota_bitableau(positive))))
    if ns.json:
        print(json.dumps(pairs_to_json(U)), file=out)
    else:
        print(_pairs_text(U), file=out)
    return 0


def _require_dimensions(ns):
    """A d-plane in n-space needs 0 < d < n, the index sets given must
    have d entries, and a degree bound is nonnegative."""
    if not 0 < ns.d < ns.n:
        raise ValueError("need 0 < d < n, got d=%d and n=%d" % (ns.d, ns.n))
    for flag, index in (("alpha", ns.alpha), ("beta", ns.beta), ("gamma", ns.gamma)):
        if index and len(index) != ns.d:
            raise ValueError("--%s has %d entries, not d=%d" % (flag, len(index), ns.d))
    if getattr(ns, "mmax", 0) < 0:
        raise ValueError("--mmax must be nonnegative, got %d" % ns.mmax)


def _cmd_mult(ns, out):
    _require_dimensions(ns)
    print(multiplicity(ns.alpha, ns.beta, ns.gamma, ns.n, ns.d), file=out)
    return 0


def _cmd_paths(ns, out):
    _require_dimensions(ns)
    grid = beta_grid(ns.beta, ns.n)
    Ttil, Wtil = build_bound_multisets(ns.alpha, ns.gamma, grid)
    families = enumerate_families(Ttil, Wtil, grid)
    if ns.json:
        blob = [
            {"%d,%d" % r: pairs_to_json(path) for r, path in fam.items()}
            for fam in families
        ]
        print(json.dumps({"count": len(families), "families": blob}), file=out)
        return 0
    print("%d families" % len(families), file=out)
    if ns.render:
        for k, fam in enumerate(families, 1):
            print("family %d:" % k, file=out)
            print(render_family(fam, grid), file=out)
    return 0


def _cmd_count(ns, out):
    _require_dimensions(ns)
    grid = beta_grid(ns.beta, ns.n)
    Ttil, Wtil = build_bound_multisets(ns.alpha, ns.gamma, grid)
    print("m\tmonomials\tstandard\tequal", file=out)
    bounded = bounded_multiset_counts(Ttil, Wtil, grid, ns.mmax)
    standard = standard_monomial_counts(Ttil, Wtil, grid, ns.mmax)
    for m, (a, b) in enumerate(zip(bounded, standard)):
        print("%d\t%d\t%d\t%s" % (m, a, b, "yes" if a == b else "NO"), file=out)
    return 0


def _iter_triples(n, d):
    indices = list(combinations(range(1, n + 1), d))
    for beta in indices:
        for alpha in indices:
            if not index_leq(alpha, beta):
                continue
            for gamma in indices:
                if index_leq(beta, gamma):
                    yield alpha, beta, gamma


def _cmd_verify(ns, out):
    _require_dimensions(ns)
    if ns.all_triples or ns.sample:
        triples = list(_iter_triples(ns.n, ns.d))
        if ns.sample:
            rng = random.Random(ns.seed)
            triples = rng.sample(triples, min(ns.sample, len(triples)))
    else:
        triples = [(ns.alpha, ns.beta, ns.gamma)]
    bad = 0
    for alpha, beta, gamma in triples:
        grid = beta_grid(beta, ns.n)
        report = verify_groebner(alpha, gamma, grid, ns.mmax)
        ok = report.counts_equal and report.brsk_injective
        if not ok:
            bad += 1
        print(
            "alpha=%s beta=%s gamma=%s %s"
            % (
                ",".join(map(str, alpha)),
                ",".join(map(str, beta)),
                ",".join(map(str, gamma)),
                "ok" if ok else "MISMATCH at m=%s" % report.witness_degree,
            ),
            file=out,
        )
    print("%d triples checked, %d mismatches" % (len(triples), bad), file=out)
    return 1 if bad else 0


def _cmd_canonicalize(ns, out):
    T = canonicalize(_load_multiset(ns))
    if ns.json:
        print(json.dumps(pairs_to_json(T)), file=out)
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
        p.add_argument("--alpha", type=_parse_index, default="")
        p.add_argument("--beta", type=_parse_index, default="")
        p.add_argument("--gamma", type=_parse_index, default="")

    p = command("brsk", _cmd_brsk, "run the correspondence on a multiset")
    p.add_argument("--pairs", default="")
    p.add_argument("--input", default="")
    p.add_argument("--trace", default="", help="write per-step JSONL trace here")
    p.add_argument("--json", action="store_true")

    p = command("rbrsk", _cmd_rbrsk, "invert the correspondence on a bitableau")
    p.add_argument("--input", default="")
    p.add_argument("--json", action="store_true")

    p = command("mult", _cmd_mult, "multiplicity at the fixed point of beta")
    common_triple(p)

    p = command("paths", _cmd_paths, "enumerate disjoint path families")
    common_triple(p)
    p.add_argument("--render", action="store_true")
    p.add_argument("--json", action="store_true")

    p = command("count", _cmd_count, "tabulate both monomial counts per degree")
    common_triple(p)
    p.add_argument("--mmax", type=int, default=4)

    p = command("verify", _cmd_verify, "check the counting identity; exit 1 on mismatch")
    common_triple(p)
    p.add_argument("--mmax", type=int, default=3)
    p.add_argument("--all-triples", action="store_true")
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = command("canonicalize", _cmd_canonicalize, "canonical twisted chain of a multiset")
    p.add_argument("--pairs", default="")
    p.add_argument("--input", default="")
    p.add_argument("--json", action="store_true")
    return parser


# The parser, built on the first call to main and reused by every later
# one in the same process; it holds no state between parses.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return run(_PARSER.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
