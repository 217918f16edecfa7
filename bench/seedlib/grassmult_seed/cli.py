"""Command-line front end: one binary with subcommands for the
correspondence, multiplicities, path families, and the counting
verification.  Exit code 2 flags invalid input, 1 a verification
mismatch, 0 success.
"""

import argparse
import json
import random
import sys
from dataclasses import dataclass
from itertools import combinations

from .brsk import brsk, brsk_negative, rbrsk
from .chains import canonicalize
from .grassmannian import beta_grid, build_bound_multisets, index_leq
from .groebner import count_monomials_outside_initial, count_standard_monomials, verify_groebner
from .multiplicity import enumerate_families, multiplicity, render_family
from .multisets import negative_part, pairs, sign
from .tableaux import render


@dataclass
class JobSpec:
    command: str
    n: int = 0
    d: int = 0
    alpha: tuple = ()
    beta: tuple = ()
    gamma: tuple = ()
    mmax: int = 4
    pairs_text: str = ""
    input_path: str = ""
    trace_path: str = ""
    json_out: bool = False
    do_render: bool = False
    all_triples: bool = False
    brute_force: bool = False
    sample: int = 0
    seed: int = 0


def _parse_index(text):
    return tuple(int(x) for x in text.split(",") if x)


def _parse_pairs(text):
    out = []
    for tok in text.split():
        e, f = tok.split(",")
        out.append((int(e), int(f)))
    return pairs(out)


def _load_multiset(spec: JobSpec):
    if spec.pairs_text:
        return _parse_pairs(spec.pairs_text)
    if spec.input_path:
        with open(spec.input_path) as fh:
            return pairs(tuple(p) for p in json.load(fh))
    raise ValueError("provide --pairs or --input")


def _pairs_text(U):
    return " ".join("%d,%d" % p for p in U)


def _emit_bitableau(B, out, as_json):
    P, Q = B
    if as_json:
        print(json.dumps({"P": [list(r) for r in P], "Q": [list(r) for r in Q]}), file=out)
    else:
        print("P:", file=out)
        print(render(P), file=out)
        print("Q:", file=out)
        print(render(Q), file=out)


def _write_trace(trace, path):
    with open(path, "w") as fh:
        for step in trace:
            fh.write(
                json.dumps(
                    {
                        "pair": list(step.pair),
                        "route": [list(b) for b in step.record.route],
                        "new_box": list(step.record.new_box),
                        "P": [list(r) for r in step.P],
                        "Q": [list(r) for r in step.Q],
                    }
                )
                + "\n"
            )


def _cmd_brsk(spec: JobSpec, out):
    U = _load_multiset(spec)
    if spec.trace_path:
        _, trace = brsk_negative(negative_part(U), keep_trace=True)
        _write_trace(trace, spec.trace_path)
    _emit_bitableau(brsk(U), out, spec.json_out)
    return 0


def _cmd_rbrsk(spec: JobSpec, out):
    if not spec.input_path:
        raise ValueError("rbrsk reads a bitableau from --input (JSON with P and Q)")
    with open(spec.input_path) as fh:
        data = json.load(fh)
    B = (
        tuple(tuple(r) for r in data["P"]),
        tuple(tuple(r) for r in data["Q"]),
    )
    U = rbrsk(B)
    if spec.json_out:
        print(json.dumps([list(p) for p in U]), file=out)
    else:
        print(_pairs_text(U), file=out)
    return 0


def _cmd_mult(spec: JobSpec, out):
    print(multiplicity(spec.alpha, spec.beta, spec.gamma, spec.n, spec.d), file=out)
    return 0


def _cmd_paths(spec: JobSpec, out):
    grid = beta_grid(spec.beta, spec.n)
    Ttil, Wtil = build_bound_multisets(spec.alpha, spec.gamma, grid)
    families = enumerate_families(Ttil, Wtil, grid)
    if spec.json_out:
        blob = [
            {"%d,%d" % r: [list(p) for p in path] for r, path in fam.items()}
            for fam in families
        ]
        print(json.dumps({"count": len(families), "families": blob}), file=out)
        return 0
    print("%d families" % len(families), file=out)
    if spec.do_render:
        for k, fam in enumerate(families, 1):
            print("family %d:" % k, file=out)
            print(render_family(fam, grid), file=out)
    return 0


def _cmd_count(spec: JobSpec, out):
    grid = beta_grid(spec.beta, spec.n)
    print("m\tmonomials\tstandard\tequal", file=out)
    for m in range(spec.mmax + 1):
        a = count_monomials_outside_initial(spec.alpha, spec.gamma, grid, m)
        b = count_standard_monomials(spec.alpha, spec.gamma, grid, m)
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


def _cmd_verify(spec: JobSpec, out):
    if spec.all_triples or spec.sample:
        triples = list(_iter_triples(spec.n, spec.d))
        if spec.sample:
            rng = random.Random(spec.seed)
            triples = rng.sample(triples, min(spec.sample, len(triples)))
    else:
        triples = [(spec.alpha, spec.beta, spec.gamma)]
    bad = 0
    for alpha, beta, gamma in triples:
        grid = beta_grid(beta, spec.n)
        report = verify_groebner(alpha, gamma, grid, spec.mmax)
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


def _cmd_canonicalize(spec: JobSpec, out):
    U = _load_multiset(spec)
    T = canonicalize(U, brute_force=spec.brute_force)
    if spec.json_out:
        print(json.dumps([list(p) for p in T]), file=out)
    else:
        print(_pairs_text(T), file=out)
    return 0


_COMMANDS = {
    "brsk": _cmd_brsk,
    "rbrsk": _cmd_rbrsk,
    "mult": _cmd_mult,
    "paths": _cmd_paths,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "canonicalize": _cmd_canonicalize,
}


def run(spec: JobSpec, out=None) -> int:
    out = out or sys.stdout
    try:
        return _COMMANDS[spec.command](spec, out)
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

    def common_triple(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--alpha", default="")
        p.add_argument("--beta", default="")
        p.add_argument("--gamma", default="")

    p = sub.add_parser("brsk", help="run the correspondence on a multiset")
    p.add_argument("--pairs", default="")
    p.add_argument("--input", default="")
    p.add_argument("--trace", default="", help="write per-step JSONL trace here")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rbrsk", help="invert the correspondence on a bitableau")
    p.add_argument("--input", default="")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("mult", help="multiplicity at the fixed point of beta")
    common_triple(p)

    p = sub.add_parser("paths", help="enumerate disjoint path families")
    common_triple(p)
    p.add_argument("--render", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("count", help="tabulate both monomial counts per degree")
    common_triple(p)
    p.add_argument("--mmax", type=int, default=4)

    p = sub.add_parser("verify", help="check the counting identity; exit 1 on mismatch")
    common_triple(p)
    p.add_argument("--mmax", type=int, default=3)
    p.add_argument("--all-triples", action="store_true")
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("canonicalize", help="canonical twisted chain of a multiset")
    p.add_argument("--pairs", default="")
    p.add_argument("--input", default="")
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--json", action="store_true")
    return parser


def spec_from_args(argv=None) -> JobSpec:
    ns = _build_parser().parse_args(argv)
    get = lambda name, fall: getattr(ns, name, fall)
    return JobSpec(
        command=ns.command,
        n=get("n", 0) or 0,
        d=get("d", 0) or 0,
        alpha=_parse_index(get("alpha", "") or ""),
        beta=_parse_index(get("beta", "") or ""),
        gamma=_parse_index(get("gamma", "") or ""),
        mmax=get("mmax", 4),
        pairs_text=get("pairs", "") or "",
        input_path=get("input", "") or "",
        trace_path=get("trace", "") or "",
        json_out=get("json", False),
        do_render=get("render", False),
        all_triples=get("all_triples", False),
        brute_force=get("brute_force", False),
        sample=get("sample", 0),
        seed=get("seed", 0),
    )


def main(argv=None) -> int:
    return run(spec_from_args(argv))


if __name__ == "__main__":
    sys.exit(main())
