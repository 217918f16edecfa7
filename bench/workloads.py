"""The four benchmark workloads.

Each workload turns a seed into an endless stream of queries, runs one
query through grassmult's public API, and checks the answer with code
that shares nothing with the library (see reference.py) or against the
answers frozen in frozen/.  Queries are issued in rounds or epochs that
hold every stratum of the input space in fixed proportion, so runs on
different seeds do the same mix of work and their timings agree.
"""

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import reference

FROZEN = Path(__file__).resolve().parent / "frozen"
BLOCK = 100  # queries per frozen digest


def index_leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def triples(n: int, d: int):
    """Every alpha <= beta <= gamma among the d-subsets of 1..n."""
    idx = list(combinations(range(1, n + 1), d))
    return [
        (alpha, beta, gamma)
        for beta in idx
        for alpha in idx
        if index_leq(alpha, beta)
        for gamma in idx
        if index_leq(beta, gamma)
    ]


def stratified_epochs(items, stratum, rng):
    """Endless stream over items, each epoch a permutation of all of them
    in which every stratum is spread evenly, so that every prefix holds
    the strata in nearly their overall proportions."""
    groups = {}
    for item in items:
        groups.setdefault(stratum(item), []).append(item)
    while True:
        keyed = []
        for group in groups.values():
            rng.shuffle(group)
            offset = rng.random()
            keyed += [((k + offset) / len(group), rng.random(), item) for k, item in enumerate(group)]
        keyed.sort(key=lambda t: t[:2])
        yield from (item for _, _, item in keyed)


def digest(pairs) -> str:
    """Digest of a block of (query, answer) pairs."""
    h = hashlib.sha256()
    for q, answer in pairs:
        h.update(repr((q, answer)).encode())
    return h.hexdigest()[:16]


def dimension(triple) -> int:
    """Dimension of the Richardson variety of an (alpha, beta, gamma) triple."""
    return reference.length(triple[2]) - reference.length(triple[0])


def share(flags) -> float:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else 0.0


def repeat_share(keys) -> float:
    """Share of queries whose key already occurred earlier in the run."""
    seen = set()
    repeats = 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    return repeats / len(keys) if keys else 0.0


class Workload:
    """One seeded workload.  Subclasses define the query stream, the
    call into the library, the answer recorded for the frozen digests,
    and the independent check."""

    name = ""
    pregen = 0  # queries generated during set-up
    trace_queries = 0  # queries per pass of a traced run
    calibration = 0  # queries in one calibration unit
    calibration_ref_s = 0.0  # time of one unit at the reference speed

    def __init__(self, seed: int):
        self.seed = seed
        path = FROZEN / (self.name + ".json")
        self.frozen = json.loads(path.read_text()) if path.is_file() else {}

    def stream(self, rng):
        raise NotImplementedError

    def run(self, lib, q):
        raise NotImplementedError

    def answer(self, q, out):
        """The part of an output that the frozen digests cover."""
        return out

    def check(self, q, out) -> bool:
        raise NotImplementedError

    def properties(self, queries) -> dict:
        """Properties of a prefix of the input stream."""
        raise NotImplementedError

    def queries(self, seed):
        return self.stream(random.Random(seed))

    def verify(self, position, block):
        """Verdicts on a block of (query, output) pairs that starts at
        `position` in the stream: the independent check, then, for a
        complete block of a shipped seed, the frozen digest.  A block
        whose digest differs fails all its queries, since the digest
        cannot tell which one is wrong.  Returns (verdicts, queries
        covered by a frozen digest)."""
        ok = [not isinstance(out, Failure) and self.check(q, out) for q, out in block]
        frozen = self.frozen.get("seeds", {}).get(str(self.seed), [])
        b, offset = divmod(position, BLOCK)
        if len(block) != BLOCK or offset or b >= len(frozen) or not all(ok):
            return ok, 0
        if digest((q, self.answer(q, out)) for q, out in block) != frozen[b]:
            return [False] * BLOCK, BLOCK
        return ok, BLOCK


class Failure:
    """A query that raised."""

    def __init__(self, exc):
        self.error = "%s: %s" % (type(exc).__name__, exc)

    def __repr__(self):
        return "Failure(%s)" % self.error


class MultPaths(Workload):
    """Multiplicities at fixed points, n = 10..15, d = n // 2.  Each round
    holds, for every n, two smooth full-Grassmannian points and one random
    point.  Smooth points have their beta drawn in epochs stratified by
    the number of anchors on each side, which sets their cost.  At most
    MAX_ANCHORS anchors per side keeps the slowest query near a third of
    a second on seed code, so none dominates a run."""

    name = "mult_paths"
    NS = range(10, 16)
    MAX_ANCHORS = 4
    pregen = 8000
    trace_queries = 1200
    calibration, calibration_ref_s = 25, 0.06

    def anchors(self, alpha, beta, gamma):
        return len(set(alpha) - set(beta)), len(set(gamma) - set(beta))

    def smooth(self, n):
        d = n // 2
        return tuple(range(1, d + 1)), tuple(range(n - d + 1, n + 1))

    def _random(self, rng, n):
        d = n // 2
        while True:
            beta = tuple(sorted(rng.sample(range(1, n + 1), d)))
            alpha, gamma = [], [0] * d
            for i in range(d):
                alpha.append(rng.randint(alpha[-1] + 1 if alpha else 1, beta[i]))
            for i in reversed(range(d)):
                gamma[i] = rng.randint(beta[i], gamma[i + 1] - 1 if i < d - 1 else n)
            if max(self.anchors(alpha, beta, gamma)) <= self.MAX_ANCHORS:
                return (n, d, tuple(alpha), beta, tuple(gamma), False)

    def _smooth_betas(self, rng, n):
        alpha, gamma = self.smooth(n)
        betas = [
            beta
            for beta in combinations(range(1, n + 1), n // 2)
            if max(self.anchors(alpha, beta, gamma)) <= self.MAX_ANCHORS
        ]
        return stratified_epochs(betas, lambda beta: self.anchors(alpha, beta, gamma), rng)

    def stream(self, rng):
        betas = {n: self._smooth_betas(rng, n) for n in self.NS}
        while True:
            rnd = [(n, smooth) for n in self.NS for smooth in (True, True, False)]
            rng.shuffle(rnd)
            for n, smooth in rnd:
                if smooth:
                    alpha, gamma = self.smooth(n)
                    yield (n, n // 2, alpha, next(betas[n]), gamma, True)
                else:
                    yield self._random(rng, n)

    def run(self, lib, q):
        n, d, alpha, beta, gamma, _ = q
        return lib.pkg.multiplicity(alpha, beta, gamma, n, d)

    def check(self, q, out) -> bool:
        n, _, alpha, beta, gamma, smooth = q
        return out == (1 if smooth else reference.multiplicity(alpha, beta, gamma, n))

    def properties(self, queries) -> dict:
        mult = [1 if q[5] else reference.multiplicity(q[2], q[3], q[4], q[0]) for q in queries]
        return {
            "nd_hist": dict(Counter("%d/%d" % q[:2] for q in queries)),
            "smooth_share": share(q[5] for q in queries),
            "mult1_share": share(m == 1 for m in mult),
            "max_multiplicity": max(mult),
            "beta_repeat_share": repeat_share([q[:2] + q[3:4] for q in queries]),
            "input_repeat_share": repeat_share(queries),
        }


class TripleDomain(Workload):
    """A workload over every alpha <= beta <= gamma of one (n, d), in
    epochs stratified by dimension."""

    N = D = 0

    def __init__(self, seed):
        super().__init__(seed)
        self.domain = triples(self.N, self.D)

    def stream(self, rng):
        return stratified_epochs(self.domain, dimension, rng)

    def properties(self, queries) -> dict:
        return {
            "nd_hist": {"%d/%d" % (self.N, self.D): len(queries)},
            "dim_hist": dict(Counter(map(dimension, queries))),
            "beta_repeat_share": repeat_share([q[1] for q in queries]),
            "input_repeat_share": repeat_share(queries),
        }


class OracleDimDeg(TripleDomain):
    """Dimension and degree by the brute-force subset oracle over the
    (7, 3) triples."""

    name = "oracle_dimdeg"
    N, D = 7, 3
    pregen = 4116
    trace_queries = 120
    calibration, calibration_ref_s = 1, 0.075

    def __init__(self, seed):
        super().__init__(seed)
        self.degree = dict(zip(self.domain, self.frozen.get("degrees", [])))

    def run(self, lib, q):
        alpha, beta, gamma = q
        return lib.pkg.dimension_and_degree(alpha, beta, gamma, self.N, self.D)

    def check(self, q, out) -> bool:
        return out == (dimension(q), self.degree.get(q))


class BrskRoundtrip(Workload):
    """Nonvanishing multisets of degree 1..16 on the off-diagonal points
    of the 10 x 10 grid, with both signs present from degree 2 on.  Each
    goes through brsk, split_parts, and rbrsk on both halves.  Each round
    holds one multiset of every degree."""

    name = "brsk_roundtrip"
    DEGREES = range(1, 17)
    POINTS = [(e, f) for e in range(1, 11) for f in range(1, 11) if e != f]
    pregen = 30000
    trace_queries = 4000
    calibration, calibration_ref_s = 60, 0.065

    def _multiset(self, rng, m):
        while True:
            U = tuple(sorted(rng.choice(self.POINTS) for _ in range(m)))
            if m == 1 or len({e < f for e, f in U}) == 2:
                return U

    def stream(self, rng):
        while True:
            degrees = list(self.DEGREES)
            rng.shuffle(degrees)
            for m in degrees:
                yield self._multiset(rng, m)

    def run(self, lib, U):
        B = lib.pkg.brsk(U)
        negative, positive = lib.tableaux.split_parts(B)
        back = lib.pkg.rbrsk(negative) + lib.multisets.iota(
            lib.pkg.rbrsk(lib.tableaux.iota_bitableau(positive))
        )
        return B, tuple(sorted(back))

    def answer(self, U, out):
        return out[0]

    def check(self, U, out) -> bool:
        (P, Q), back = out
        return back == U and sum(map(len, P)) == len(U) and [len(r) for r in P] == [len(r) for r in Q]

    def properties(self, queries) -> dict:
        return {
            "degree_hist": dict(Counter(len(U) for U in queries)),
            "input_repeat_share": repeat_share(queries),
        }


class GroebnerVerify(TripleDomain):
    """The documented CLI, `grassmult verify --mmax 4`, once per (6, 2)
    triple."""

    name = "groebner_verify"
    N, D, MMAX = 6, 2, 4
    pregen = 490
    trace_queries = 100
    calibration, calibration_ref_s = 1, 0.035

    @staticmethod
    def _text(index):
        return ",".join(map(str, index))

    def argv(self, q):
        argv = ["verify", "--n", str(self.N), "--d", str(self.D)]
        for flag, index in zip(("--alpha", "--beta", "--gamma"), q):
            argv += [flag, self._text(index)]
        return argv + ["--mmax", str(self.MMAX)]

    def run(self, lib, q):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(self.argv(q))
        return code, buf.getvalue()

    def check(self, q, out) -> bool:
        alpha, beta, gamma = map(self._text, q)
        expected = "alpha=%s beta=%s gamma=%s ok\n1 triples checked, 0 mismatches\n" % (alpha, beta, gamma)
        return out == (0, expected)


WORKLOADS = {w.name: w for w in (MultPaths, OracleDimDeg, BrskRoundtrip, GroebnerVerify)}
