"""score_chains: parse, elaborate and query seeded Markov chains in process.

Each operation parses a chain program z0 ~ init0, z_i ~ step(z_{i-1}),
w = f(z_last) with a parameterized `dist step(t3) : t3`, builds its static
system with `elaborate_static` and runs a batch of `outer`, `inner` and
`likelihood` queries on it.  It then parses a longer chain, builds its
network with `elaborate_graph` and calls `bn_score` at every full state.
A share of the operations also builds a tree-shaped factor graph, turns it
into a network with `fg_to_bn` and scores every full state.

One system is built and then queried many times, so this is the read-heavy
use of `core`; it also covers `bayes` and `factorgraph`.

Every score is checked against exact products of the table entries the
benchmark generated: a full state of a chain scores
init0(z0) * prod step(z_i | z_{i-1}) * [w = f(z_last)], and a full state
of a tree graph scores prod_i f_i(state) / Z, where f_i sums the weights of
system i's outcomes that admit the state's restriction.
"""

import itertools
from fractions import Fraction

from common import Op, build_ops, cycle_len, rng_for

T3 = (0, 1, 2)
BOOL = (False, True)
# (static chain length, graph chain length, tree graph) -> ops per cycle.
# Op times per class are tight (~17, ~55, ~120 and ~165 ms); p50 falls
# inside the second class (25%..70% of ops) and p90 inside the third
# (70%..95%).
MIX = (((2, 4, False), 5), ((2, 5, True), 9), ((3, 4, False), 5), ((3, 5, True), 1))
CYCLES = 7
FULL_STATE_QUERIES = 2


def rand_dist(rng, values):
    w = [rng.randint(1, 4) for _ in values]
    total = sum(w)
    return {v: Fraction(x, total) for v, x in zip(values, w)}


def fmt_value(v):
    return ("T" if v else "F") if isinstance(v, bool) else str(v)


def fmt_dist(d):
    return "{ %s }" % ", ".join("%s : %d/%d" % (fmt_value(v), p.numerator, p.denominator)
                                for v, p in d.items())


class Chain:
    """A chain program and the exact tables it was written from."""

    def __init__(self, rng, k):
        self.k = k
        self.names = ["z%d" % i for i in range(k)]
        self.init0 = rand_dist(rng, T3)
        self.step = {c: rand_dist(rng, T3) for c in T3}
        self.f = {c: rng.choice(BOOL) for c in T3}

    def text(self):
        lines = [
            "domain t3 = { 0, 1, 2 }",
            "domain bool = { F, T }",
            "var %s : t3" % ", ".join(self.names),
            "var w : bool",
            "dist init0 : t3 %s" % fmt_dist(self.init0),
            "dist step(t3) : t3 { %s }" % ", ".join(
                "%d -> %s" % (c, fmt_dist(self.step[c])) for c in T3),
            "func f : t3 -> bool { %s }" % ", ".join(
                "%d -> %s" % (c, fmt_value(self.f[c])) for c in T3),
            "|| z0 ~ init0",
        ]
        lines += ["|| z%d ~ step(z%d)" % (i, i - 1) for i in range(1, self.k)]
        lines.append("|| w = f(z%d)" % (self.k - 1))
        return "\n".join(lines) + "\n"

    def prob(self, zs, w):
        p = self.init0[zs[0]]
        for a, b in zip(zs, zs[1:]):
            p *= self.step[a][b]
        return p if self.f[zs[-1]] == w else Fraction(0)

    def full_states(self):
        for zs in itertools.product(T3, repeat=self.k):
            for w in BOOL:
                yield zs, w

    def state(self, zs, w):
        d = dict(zip(self.names, zs))
        d["w"] = w
        return d


class Tree:
    """A tree-shaped factor graph: system 0 joins v0 and v1, and each later
    system joins one existing variable to a new one.  Every system covers
    every value of the variable it attaches by, so the composition is
    consistent.  Rows are single states."""

    def __init__(self, rng, m):
        self.doms = {"v0": (0, 1, 2)[: rng.randint(2, 3)], "v1": (0, 1, 2)[: rng.randint(2, 3)]}
        self.systems = []
        for i in range(m):
            if i == 0:
                shared, new = "v0", "v1"
            else:
                shared = rng.choice(sorted(self.doms))
                new = "v%d" % (i + 1)
                self.doms[new] = (0, 1, 2)[: rng.randint(2, 3)]
            rows = [{shared: v, new: rng.choice(self.doms[new])} for v in self.doms[shared]]
            rows += [{shared: rng.choice(self.doms[shared]), new: rng.choice(self.doms[new])}
                     for _ in range(rng.randint(0, 2))]
            weights = rand_dist(rng, range(len(rows)))
            self.systems.append((sorted((shared, new)), rows, weights))
        self.names = sorted(self.doms)

    def factor(self, i, q):
        names, rows, weights = self.systems[i]
        return sum((weights[j] for j, r in enumerate(rows)
                    if all(r[n] == q[n] for n in names)), Fraction(0))

    def scores(self):
        states = [dict(zip(self.names, vals))
                  for vals in itertools.product(*(self.doms[n] for n in self.names))]
        raw = []
        for q in states:
            p = Fraction(1)
            for i in range(len(self.systems)):
                p *= self.factor(i, q)
            raw.append(p)
        z = sum(raw, Fraction(0))
        return [(q, p / z) for q, p in zip(states, raw)]


class Workload:
    name = "score_chains"

    def __init__(self, seed, workdir, rbmx):
        self.rbmx = rbmx
        rng = rng_for(seed, self.name)
        self.ops = build_ops(rng, MIX, CYCLES, self._make)
        self.cycle_len = cycle_len(MIX)
        self.warmup = [self._make(rng, key, "warm") for key, _ in MIX]

    def _make(self, rng, key, tag):
        ks, kg, tree = key
        static, graph = Chain(rng, ks), Chain(rng, kg)
        queries = []
        for _ in range(FULL_STATE_QUERIES):
            zs = tuple(rng.choice(T3) for _ in range(ks))
            w = static.f[zs[-1]] if rng.random() < 0.75 else not static.f[zs[-1]]
            queries.append((static.state(zs, w), static.prob(zs, w)))
        last = rng.choice(T3)
        marg = sum((static.prob(zs, w) for zs, w in static.full_states() if zs[-1] == last),
                   Fraction(0))
        best = max(static.prob(zs, w) for zs, w in static.full_states() if zs[-1] == last)
        scores = [(graph.state(zs, w), graph.prob(zs, w)) for zs, w in graph.full_states()]
        t = Tree(rng, rng.randint(3, 4)) if tree else None
        spec = {
            "static_text": static.text(),
            "graph_text": graph.text(),
            "queries": queries,
            "last": ("z%d" % (ks - 1), last, marg, best),
            "scores": scores,
            "tree": t,
            "tree_scores": t.scores() if t else None,
        }
        return Op("static=%d/graph=%d%s" % (ks, kg, "/tree" if tree else ""), spec)

    def run(self, op):
        r = self.rbmx
        core, rblang = r.core, r.rblang
        spec = op.spec
        State = core.State
        got = []
        S = rblang.elaborate_static(rblang.parse(spec["static_text"]))
        for q, _ in spec["queries"]:
            A = [State(q)]
            got.append((core.outer(S, A), core.inner(S, A), core.likelihood(S, A)))
        name, value, _, _ = spec["last"]

        def pred(q):
            return q[name] == value

        got.append((core.outer(S, pred), core.likelihood(S, pred)))
        N = rblang.elaborate_graph(rblang.parse(spec["graph_text"]))
        got.append([r.bayes.bn_score(N, State(q)).value for q, _ in spec["scores"]])
        t = spec["tree"]
        if t is not None:
            systems = []
            for names, rows, weights in t.systems:
                vars = [(n, t.doms[n]) for n in names]
                omega = list(range(len(rows)))
                rel = {j: [State(row)] for j, row in enumerate(rows)}
                systems.append(core.new_system((omega, weights), vars, rel))
            labels = ["S%d" % i for i in range(len(systems))]
            g = r.factorgraph.factor_graph(systems, labels)
            Nt = r.factorgraph.fg_to_bn(g, root=labels[0])
            got.append([r.bayes.bn_score(Nt, State(q)).value for q, _ in spec["tree_scores"]])
        return got

    def check(self, op, got):
        spec = op.spec
        for (q, want), values in zip(spec["queries"], got):
            if any(v != want for v in values):
                return "full-state query at %s: %s, expected %s" % (q, values, want)
        _, _, marg, best = spec["last"]
        if got[len(spec["queries"])] != (marg, best):
            return "z_last query: %s, expected %s" % (got[len(spec["queries"])], (marg, best))
        scores = got[len(spec["queries"]) + 1]
        if scores != [want for _, want in spec["scores"]]:
            return "chain network scores differ from the table products"
        if spec["tree"] is not None and got[-1] != [want for _, want in spec["tree_scores"]]:
            return "tree network scores differ from the composed joint"
        return None
