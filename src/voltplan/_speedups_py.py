"""The flow kernel in pure Python.

Graphs arrive as flat arc arrays (tails, heads, caps, costs); arcs are
stored with paired reverse edges (edge 2i forward, 2i+1 backward). Every
arc carries flow in [0, cap]: there are no lower bounds. Both entry points
take arc flows and node potentials that leave every residual edge a
nonnegative reduced cost cost + pot[tail] - pot[head], and run one Dijkstra
over those reduced costs: mcmf once per augmenting path, returning such
potentials for its final flow, and shortest_paths once.

Dijkstra marks "not reached yet" with an integer sentinel computed per call
from the costs and the potentials, strictly above every distance the call
can produce, so a solve stays exact at any magnitude.
"""

from __future__ import annotations

from heapq import heappop, heappush


def _build(n, tails, heads, caps, costs, flows=None):
    """Adjacency arrays of the residual graph; each arc starts at its flow
    (zero when flows is None)."""
    m = len(tails)
    to = [0] * (2 * m)
    cap = [0] * (2 * m)
    cst = [0] * (2 * m)
    nxt = [-1] * (2 * m)
    first = [-1] * n
    for i in range(m):
        t, h = tails[i], heads[i]
        e = 2 * i
        f = 0 if flows is None else flows[i]
        to[e], cap[e], cst[e] = h, caps[i] - f, costs[i]
        nxt[e] = first[t]
        first[t] = e
        to[e + 1], cap[e + 1], cst[e + 1] = t, f, -costs[i]
        nxt[e + 1] = first[h]
        first[h] = e + 1
    return to, cap, cst, nxt, first


def _dijkstra(n, to, cap, cst, nxt, first, pot, s, inf):
    """Reduced distances from s over the edges with positive capacity.

    Returns (dist, prev, top): inf in dist for a node s does not reach, the
    edge into each reached node on its shortest path in prev, and top, the
    largest distance settled (the last one, since they come in order).
    """
    dist = [inf] * n
    dist[s] = 0
    prev = [-1] * n
    done = [False] * n
    heap = [(0, s)]
    top = 0
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        top = d
        pu = pot[u]
        e = first[u]
        while e != -1:
            v = to[e]
            if cap[e] > 0 and not done[v]:
                nd = d + cst[e] + pu - pot[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = e
                    heappush(heap, (nd, v))
            e = nxt[e]
    return dist, prev, top


def shortest_paths(n, tails, heads, caps, costs, flows, pot, src):
    """Residual distances from src given per-arc flow and potentials that
    leave every residual edge a nonnegative reduced cost.

    Residual forward capacity is cap - flow, backward is flow. Returns the
    distance list, None for a node src does not reach.
    """
    # a tentative distance is the reduced length of a simple path from src:
    # its cost, at most the sum of the |costs|, plus pot[src] - pot[v]
    inf = 1 + sum(map(abs, costs)) + max(pot, default=0) - min(pot, default=0)
    dist = _dijkstra(n, *_build(n, tails, heads, caps, costs, flows), pot, src, inf)[0]
    ps = pot[src]
    return [None if d == inf else d - ps + p for d, p in zip(dist, pot)]


def mcmf(n, tails, heads, caps, costs, s, t, limit, flows=None, pot=None):
    """Min-cost flow from s to t via successive shortest augmenting paths.

    Pushes up to `limit` units on top of the initial arc flows. Every
    residual edge must have a nonnegative reduced cost
    cost + pot[tail] - pot[head], so Dijkstra is valid from the first pass;
    with zero flows and potentials (the default) that means nonnegative
    costs. Returns (value pushed, final flows per input arc, potentials
    under which the final flow keeps that property).
    """
    m = len(tails)
    to, cap, cst, nxt, first = _build(n, tails, heads, caps, costs, flows)
    pot = [0] * n if pot is None else list(pot)
    # A tentative distance is the reduced length of a simple path, its cost
    # (at most C, the sum of the |costs|) plus pot[s] - pot[v]. pot[s] never
    # moves, and after the first pass every node s still reaches (that set
    # only shrinks) has pot[v] = pot[s] + its distance from s, within C of
    # pot[s]; so inf lies above every tentative distance of every pass.
    inf = 1 + 2 * sum(map(abs, costs)) + max(pot, default=0) - min(pot, default=0)
    value = 0
    while limit > 0:
        dist, prev, top = _dijkstra(n, to, cap, cst, nxt, first, pot, s, inf)
        if dist[t] == inf:
            break
        # A node the pass did not reach rises by the largest distance it
        # settled: an edge into a reached node then keeps a nonnegative
        # reduced cost, and no positive-capacity edge leads out of the
        # reached set. Such a node is never reached again, so no path
        # choice reads its potential.
        pot = [p + (d if d < inf else top) for p, d in zip(pot, dist)]
        path = []
        v = t
        while v != s:
            path.append(prev[v])
            v = to[prev[v] ^ 1]
        bottleneck = min(limit, *(cap[e] for e in path))
        for e in path:
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
        value += bottleneck
        limit -= bottleneck
    flows = [cap[2 * i + 1] for i in range(m)]
    return value, flows, pot
