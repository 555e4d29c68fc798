"""The flow kernel in pure Python.

Graphs arrive as flat arc arrays (tails, heads, caps, costs); arcs are
stored with paired reverse edges (edge 2i forward, 2i+1 backward). Every
arc carries flow in [0, cap]: there are no lower bounds. Both entry points
take arc flows and node potentials that leave every residual edge a
nonnegative reduced cost cost + pot[tail] - pot[head], and run one Dijkstra
over those reduced costs: mcmf once per augmenting path, returning such
potentials for its final flow, and shortest_paths once. The shipping loop
itself, ship, works on residual arrays its caller already holds:
mcmf builds them per call, and flow.ResidualNetwork keeps them across
solves.

Dijkstra marks "not reached yet" with an integer sentinel computed per call
from the costs and the potentials, strictly above every distance the call
can produce, so a solve stays exact at any magnitude. An mcmf pass may stop
once it settles the sink; every node's potential then rises by the smaller
of its tentative distance and the sink's.
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


def _dijkstra(n, to, cap, cst, nxt, first, pot, s, inf, t=-1):
    """Reduced distances from s over the edges with positive capacity,
    settling every node s reaches, or only those up to t when t is given.

    Returns (dist, prev, top): in dist the distance of each settled node, a
    tentative distance (at least top) for a node reached but not settled,
    and inf for a node not reached; the edge into each reached node on its
    shortest known path in prev; and top, the largest distance settled (the
    last one, since they come in order; t's when the pass stopped there).
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
        if u == t:
            break
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
    return distances(n, *_build(n, tails, heads, caps, costs, flows), pot, src, inf)


def distances(n, to, cap, cst, nxt, first, pot, src, inf):
    """shortest_paths on residual arrays held by the caller; inf lies above
    every tentative distance."""
    dist = _dijkstra(n, to, cap, cst, nxt, first, pot, src, inf)[0]
    ps = pot[src]
    return [None if d == inf else d - ps + p for d, p in zip(dist, pot)]


def mcmf(n, tails, heads, caps, costs, s, t, limit, flows=None, pot=None, stop=False):
    """Min-cost flow from s to t via successive shortest augmenting paths.

    Pushes up to `limit` units on top of the initial arc flows. Every
    residual edge must have a nonnegative reduced cost
    cost + pot[tail] - pot[head], so Dijkstra is valid from the first pass;
    with zero flows and potentials (the default) that means nonnegative
    costs. Returns (value pushed, final flows per input arc, potentials
    under which the final flow keeps that property).

    With stop, each pass ends once it settles t. Its path to t is the one a
    full pass finds, since the heap pops the same nodes up to t, but the
    potentials it leaves differ, and with them how later passes break ties
    between paths of equal cost: the min-cost circulation stops, and the
    shifter flow keeps full passes until its assignment no longer depends
    on those ties.
    """
    m = len(tails)
    to, cap, cst, nxt, first = _build(n, tails, heads, caps, costs, flows)
    pot = [0] * n if pot is None else list(pot)
    # A tentative distance is the reduced length of a simple path, its cost
    # (at most the sum of the |costs|) plus pot[s] - pot[v]. pot[s] never
    # moves (its distance is 0), and no potential falls below its start,
    # since every pass raises each one by a distance, which is nonnegative;
    # so inf lies above every tentative distance of every pass.
    inf = 1 + sum(map(abs, costs)) + max(pot, default=0) - min(pot, default=0)
    value, pot = ship(n, to, cap, cst, nxt, first, pot, s, t, limit, inf, stop)
    return value, cap[1 : 2 * m : 2], pot


def ship(n, to, cap, cst, nxt, first, pot, s, t, limit, inf, stop):
    """mcmf's augmenting loop on residual arrays held by the caller, which
    it updates in place: up to limit units from s to t, from potentials pot
    that leave every residual edge a nonnegative reduced cost; inf lies
    above every tentative distance of every pass. Returns (value pushed,
    potentials under which the final flow keeps that property)."""
    t_stop = t if stop else -1
    value = 0
    while limit > 0:
        dist, prev, top = _dijkstra(n, to, cap, cst, nxt, first, pot, s, inf, t_stop)
        if dist[t] == inf:
            break
        # Every node rises by the smaller of its distance and top, the
        # largest distance settled. An edge out of a settled node u keeps a
        # nonnegative reduced cost, since dist[head] <= dist[u] + its
        # reduced cost; an edge out of any other node has rc + top -
        # min(dist[head], top) >= rc. A full pass settles every node it
        # reaches, so only the nodes it does not reach take top; no
        # positive-capacity edge leads to them, so no path choice reads
        # their potentials.
        pot = [p + (d if d < top else top) for p, d in zip(pot, dist)]
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
    return value, pot
