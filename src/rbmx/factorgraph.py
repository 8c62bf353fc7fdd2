"""Factor graphs of composed systems, and the tree-to-network transform.

The factor graph of a family of systems is the bipartite graph joining each
system to the variables it exposes; composing families unions their graphs.
When that graph is a forest, the whole composition can be reorganized into
a Bayesian network without changing any score: each system is split into a
conditional kernel hanging off the variable leading to its parent, and its
marginal on that variable is pushed up into the parent's accumulator.  The
network scores exactly like the full composition, whichever root is chosen.
"""

from __future__ import annotations

from collections import deque

from .bayes import BayesianNetwork, conditional, kernel_from_system
from .core import (
    compose,
    compress,
    document_reader,
    marginal,
    merge_vars,
    system_from_json,
    system_to_json,
)
from .errors import NotATree


class FactorGraph:
    """Bipartite graph: labeled system nodes on one side, variable names on
    the other, an edge wherever the system exposes the variable."""

    __slots__ = ("labels", "systems", "variables", "edges")

    def __init__(self, systems, labels=None):
        systems = list(systems)
        if labels is None:
            labels = ["S%d" % i for i in range(len(systems))]
        labels = list(labels)
        if len(labels) != len(systems) or len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct and match the systems")

        merged = merge_vars(*(S.vars for S in systems))

        self.labels = tuple(labels)
        self.systems = dict(zip(labels, systems))
        self.variables = tuple(sorted(v.name for v in merged))
        self.edges = frozenset(
            (lab, v.name) for lab, S in zip(labels, systems) for v in S.vars
        )

    def neighbors(self):
        """Adjacency over the mixed node set; system nodes are ("s", label),
        variable nodes are ("v", name)."""
        adj = {("s", lab): set() for lab in self.labels}
        for x in self.variables:
            adj[("v", x)] = set()
        for lab, x in self.edges:
            adj[("s", lab)].add(("v", x))
            adj[("v", x)].add(("s", lab))
        return adj

    def __repr__(self):
        return "FactorGraph(%d systems, %d variables)" % (
            len(self.labels),
            len(self.variables),
        )


def factor_graph(systems, labels=None) -> FactorGraph:
    return FactorGraph(systems, labels)


def _components(adj):
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in sorted(adj[u]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def is_tree(g: FactorGraph) -> bool:
    """Connected and exactly one fewer edge than nodes."""
    adj = g.neighbors()
    if not adj:
        return False
    nodes = len(adj)
    edges = sum(len(v) for v in adj.values()) // 2
    return len(_components(adj)) == 1 and edges == nodes - 1


def fg_to_bn(g: FactorGraph, root=None) -> BayesianNetwork:
    """Turn a forest-shaped factor graph into a score-equivalent network.

    Each connected component must be a tree (NotATree otherwise) and is
    processed independently: systems are visited deepest-first; a visited
    system's accumulated composition is split into the conditional kernel on
    the variable toward its parent, while its marginal on that variable is
    compressed and composed into the parent's accumulator, which is
    compressed in turn, so it keeps no two outcomes of equal rows.  The
    root's accumulator becomes an input-less head kernel.  ``root`` picks the root system of its
    component; every other component roots at its highest-degree system.
    """
    adj = g.neighbors()
    if root is not None and ("s", root) not in adj:
        raise NotATree("unknown root system %r" % root)

    kernels = []
    for comp in _components(adj):
        edges = sum(len(adj[u]) for u in comp) // 2
        if edges != len(comp) - 1:
            raise NotATree("factor graph component %r has a cycle"
                           % sorted(lab for kind, lab in comp if kind == "s"))

        sys_nodes = [u for u in comp if u[0] == "s"]
        if root is not None and ("s", root) in comp:
            root_node = ("s", root)
        else:
            # highest degree; ties broken by label order
            best_deg = max(len(adj[u]) for u in sys_nodes)
            root_node = sorted(u for u in sys_nodes if len(adj[u]) == best_deg)[0]

        parent = {root_node: None}
        depth = {root_node: 0}
        queue = deque([root_node])
        while queue:
            u = queue.popleft()
            for w in sorted(adj[u]):
                if w not in parent:
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)

        acc = {lab: g.systems[lab] for kind, lab in sys_nodes}
        order = sorted(sys_nodes, key=lambda u: (-depth[u], u[1]))
        for node in order:
            _, lab = node
            if node == root_node:
                kernels.append(
                    kernel_from_system(compress(acc[lab]), name="head[%s]" % lab)
                )
                continue
            xhat = parent[node][1]
            psys = parent[parent[node]][1]
            T = acc[lab]
            K = conditional(T, [xhat])
            K.name = "cond[%s|%s]" % (lab, xhat)
            kernels.append(K)
            acc[psys] = compress(compose(acc[psys], compress(marginal(T, [xhat]))))

    return BayesianNetwork(kernels)


def dot_export(g: FactorGraph) -> str:
    """Undirected DOT rendering: boxes for systems, ellipses for variables."""
    lines = ["graph factor_graph {"]
    for lab in sorted(g.labels):
        lines.append('  "%s" [shape=box];' % lab)
    for x in g.variables:
        lines.append('  "%s" [shape=ellipse];' % x)
    for lab, x in sorted(g.edges):
        lines.append('  "%s" -- "%s";' % (lab, x))
    lines.append("}")
    return "\n".join(lines) + "\n"


def fg_to_json(g: FactorGraph) -> dict:
    return {
        "systems": {lab: system_to_json(g.systems[lab]) for lab in g.labels},
        "variables": list(g.variables),
        "edges": sorted([lab, x] for lab, x in g.edges),
        "tree": is_tree(g),
    }


@document_reader("factor graph")
def fg_from_json(doc, table) -> FactorGraph:
    """Factor graph from a {"systems": {label: system document}} document,
    not empty; the systems are read in its table."""
    systems = doc["systems"]
    if not systems:
        raise ValueError("it holds no systems")
    labels = list(systems)
    return factor_graph([system_from_json(systems[lab], _table=table) for lab in labels],
                        labels)
