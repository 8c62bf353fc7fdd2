"""Exact transportation feasibility.

Given two rational measures of equal total mass and a set of allowed pairs,
decide whether some nonnegative joint measure supported on the allowed
pairs has exactly those marginals — and produce one when it exists.

A measure is compiled once into core.Masses, which sampling reads too: its
positive masses as Python ints over one common scale, the least common
multiple of their denominators, and their total over that scale (imported
here, transport.Masses is the same class).  feasible_transport takes either
form and compiles a Fraction dict at entry.  coupling compares the two
totals over the lcm of the two scales first, and only then brings both
sides' masses to that lcm (a side already over it is copied unchanged), so
the search never builds a Fraction.  Callers that test one measure against
many others compile it once and hand the Masses over each time.

The search works on the measures' own keys: the left keys with supply
left, the right keys with room left, and the flow already placed on
allowed pairs.  A greedy first pass walks the allowed pairs in order and
places on each as much as both its keys still allow: northwest-corner
style, since couplers list each left key's pairs together.  A complete set
of pairs, or a point mass on either side that couples at all, is settled
by that pass alone.  Each later round repairs what the greedy pass left:
one breadth-first search from every left key with supply, forward along
allowed pairs (unbounded) and back against pairs that carry flow, to the
nearest right key with room; the bottleneck is then pushed along that
path.  Shortest paths bound the number of rounds whatever the masses are.
coupling returns the witness as it was found, integer masses over one
scale; feasible_transport divides it back by the scale, so the answer is
exact either way.  Callers that only ask whether a coupling exists read
coupling's result and build no Fraction.  When several couplings exist
the witness is one of them, fixed by the order of the keys and of the
allowed pairs: callers may rely on it being an exact coupling, not on
which one it is.

covers asks only what every coupling needs and builds no flow: equal
totals, and an allowed pair at every key of either side, since each key's
mass has to travel along one.  When either side has at most one key that
is also enough: the one key sends each key of the other side its own mass.
So covers decides the lift of a point mass exactly, and bounds every other
lift from above.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm

from .core import Masses


def covers(mu1, mu2, allowed):
    """Whether the Masses mu1 and mu2 have equal totals and every key of
    either lies on some pair of ``allowed``, distinct pairs of their keys.
    A coupling on ``allowed`` exists only if they do, and whenever they do
    and either side has at most one key."""
    if mu1.total * mu2.scale != mu2.total * mu1.scale:
        return False
    n1, n2 = len(mu1.mass), len(mu2.mass)
    if len(allowed) == n1 * n2:  # every pair is allowed
        return True
    return len({a for a, _ in allowed}) == n1 and len({b for _, b in allowed}) == n2


def feasible_transport(mu1, mu2, allowed):
    """Find a joint measure on ``allowed`` pairs with marginals mu1 and mu2.

    mu1 and mu2 are Masses, or dicts mapping keys to nonnegative Fractions.
    Returns the witness as a {(a, b): mass} dict of Fractions over its
    support, or None when no such joint exists (including when the totals
    differ, since then no coupling can exist).  Zero-mass keys are
    irrelevant and are dropped up front; duplicate pairs count once.
    """
    found = coupling(mu1, mu2, allowed)
    if found is None:
        return None
    flow, scale = found
    return {pair: Fraction(m, scale) for pair, m in flow.items()}


def coupling(mu1, mu2, allowed):
    """feasible_transport's witness before the division: (flow, scale),
    where flow maps each pair of the witness's support to its mass times
    the int scale, or None when no joint exists."""
    mu1, mu2 = [mu if isinstance(mu, Masses) else Masses(mu) for mu in (mu1, mu2)]
    scale = lcm(mu1.scale, mu2.scale)
    f1, f2 = scale // mu1.scale, scale // mu2.scale
    if mu1.total * f1 != mu2.total * f2:
        return None
    supply = dict(mu1.mass) if f1 == 1 else {a: m * f1 for a, m in mu1.mass.items()}
    room = dict(mu2.mass) if f2 == 1 else {b: m * f2 for b, m in mu2.mass.items()}
    # greedy pass: each allowed pair in order takes all it can; keys that
    # run out leave supply or room, so a repeated pair places nothing
    flow = {}
    for pair in allowed:
        a, b = pair
        s, r = supply.get(a), room.get(b)
        if s is None or r is None:
            continue
        if s < r:
            flow[pair] = s
            del supply[a]
            room[b] = r - s
        else:
            flow[pair] = r
            del room[b]
            if s == r:
                del supply[a]
            else:
                supply[a] = s - r
    if supply:
        succ = {a: [] for a in mu1.mass}
        for a, b in dict.fromkeys(allowed):
            if a in succ and b in mu2.mass:
                succ[a].append(b)
        into = {b: [] for b in mu2.mass}
        for a, b in flow:
            into[b].append(a)
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
    return flow, scale
