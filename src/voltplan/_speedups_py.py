"""Flow kernels in pure Python.

Graphs arrive as flat arc arrays (tails, heads, caps, costs); arcs are
stored with paired reverse edges (edge 2i forward, 2i+1 backward). Every
arc carries flow in [0, cap]: there are no lower bounds. mcmf starts from
given arc flows and node potentials (zero by default) and needs every
residual edge's reduced cost to be nonnegative under them; the residual
Bellman-Ford takes any costs.

Both kernels mark "not reached yet" with an integer sentinel computed per
call from the costs (and the potentials), strictly above every distance
the call can produce, so a solve stays exact at any magnitude.
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


def _bellman_ford(n, to, cap, cst, nxt, first, src):
    """Distances from src over positive-capacity edges; (dist, has_neg_cycle),
    None in dist for a node src does not reach."""
    # The first distance a node gets is at most the cost of a simple path
    # from src, and distances only fall; so every distance, and every
    # relaxation into a node not reached yet, stays within the sum of the
    # |costs|.
    inf = 1 + sum(map(abs, cst))
    dist = [inf] * n
    dist[src] = 0
    changed = True
    rounds = 0
    while changed and rounds <= n:
        changed = False
        rounds += 1
        for u in range(n):
            du = dist[u]
            if du == inf:
                continue
            e = first[u]
            while e != -1:
                if cap[e] > 0 and du + cst[e] < dist[to[e]]:
                    dist[to[e]] = du + cst[e]
                    changed = True
                e = nxt[e]
    return [None if d == inf else d for d in dist], changed


def shortest_paths(n, tails, heads, caps, costs, flows, src):
    """Residual Bellman-Ford distances from src given per-arc flow.

    Residual forward capacity is cap - flow, backward is flow.
    Returns (dist list with None for unreachable, neg_cycle flag).
    """
    return _bellman_ford(n, *_build(n, tails, heads, caps, costs, flows), src)


def mcmf(n, tails, heads, caps, costs, s, t, limit, flows=None, pot=None):
    """Min-cost flow from s to t via successive shortest augmenting paths.

    Pushes up to `limit` units on top of the initial arc flows. Every
    residual edge must have a nonnegative reduced cost
    cost + pot[tail] - pot[head], so Dijkstra is valid from the first pass;
    with zero flows and potentials (the default) that means nonnegative
    costs. Returns (value pushed, final flows per input arc).
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
    prev = [-1] * n
    while limit > 0:
        dist = [inf] * n
        dist[s] = 0
        done = [False] * n
        heap = [(0, s)]
        while heap:
            d, u = heappop(heap)
            if done[u]:
                continue
            done[u] = True
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
        if dist[t] == inf:
            break
        for v in range(n):
            if dist[v] < inf:
                pot[v] += dist[v]
        bottleneck = limit
        v = t
        while v != s:
            e = prev[v]
            if cap[e] < bottleneck:
                bottleneck = cap[e]
            v = to[e ^ 1]
        v = t
        while v != s:
            e = prev[v]
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
            v = to[e ^ 1]
        value += bottleneck
        limit -= bottleneck
    flows = [cap[2 * i + 1] for i in range(m)]
    return value, flows
