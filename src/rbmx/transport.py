"""Exact transportation feasibility.

Given two rational measures of equal total mass and a set of allowed pairs,
decide whether some nonnegative joint measure supported on the allowed
pairs has exactly those marginals — and produce one when it exists.

feasible_transport first scales both measures by the least common multiple
of their denominators, so every mass is a Python int and the search never
builds a Fraction.  It then works on the measures' own keys: the left keys
with supply left, the right keys with room left, and the flow already
placed on allowed pairs.  Each round is one breadth-first search from every
left key with supply, forward along allowed pairs (unbounded) and back
against pairs that carry flow, to the nearest right key with room; the
bottleneck is then pushed along that path.  Shortest paths bound the number
of rounds whatever the masses are.  The witness is divided back by the
scale, so the answer is exact.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm


def feasible_transport(mu1: dict, mu2: dict, allowed):
    """Find a joint measure on ``allowed`` pairs with marginals mu1 and mu2.

    mu1 and mu2 map keys to nonnegative Fractions.  Returns the witness as a
    {(a, b): mass} dict over its support, or None when no such joint exists
    (including when the totals differ, since then no coupling can exist).
    Zero-mass keys are irrelevant and are dropped up front; duplicate pairs
    count once.
    """
    supply = {a: w for a, w in mu1.items() if w > 0}
    room = {b: w for b, w in mu2.items() if w > 0}
    scale = lcm(*[w.denominator for w in supply.values()],
                *[w.denominator for w in room.values()])
    for masses in (supply, room):
        for k, w in masses.items():
            masses[k] = w.numerator * (scale // w.denominator)
    if sum(supply.values()) != sum(room.values()):
        return None
    succ = {a: [] for a in supply}
    for a, b in dict.fromkeys(allowed):
        if a in supply and b in room:
            succ[a].append(b)
    flow = {}
    into = {b: [] for b in room}
    while supply:
        # came[a] is the right key whose flow from a led here (None: a root);
        # reached[b] is the left key whose allowed pair reached b
        came = dict.fromkeys(supply)
        reached = {}
        queue = deque(supply)
        end = None
        while queue and end is None:
            a = queue.popleft()
            for b in succ[a]:
                if b in reached:
                    continue
                reached[b] = a
                if b in room:
                    end = b
                    break
                for a2 in into[b]:
                    if a2 not in came:
                        came[a2] = b
                        queue.append(a2)
        if end is None:
            return None
        path, b = [], end  # (a, b, back): a gains flow to b and loses it to back
        while b is not None:
            a = reached[b]
            path.append((a, b, came[a]))
            b = came[a]
        root = a
        push = min([room[end], supply[root]] + [flow[(a, back)] for a, _, back in path[:-1]])
        for a, b, back in path:
            if (a, b) not in flow:
                flow[(a, b)] = 0
                into[b].append(a)
            flow[(a, b)] += push
            if back is not None:
                flow[(a, back)] -= push
                if not flow[(a, back)]:
                    del flow[(a, back)]
                    into[back].remove(a)
        room[end] -= push
        if not room[end]:
            del room[end]
        supply[root] -= push
        if not supply[root]:
            del supply[root]
    return {pair: Fraction(m, scale) for pair, m in flow.items()}
