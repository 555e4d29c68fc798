"""Flow kernels in pure Python.

Graphs arrive as flat arc arrays (tails, heads, caps, costs); arcs are
stored with paired reverse edges (edge 2i forward, 2i+1 backward).

INF is a large integer sentinel, never float.
"""

from __future__ import annotations

from heapq import heappop, heappush

INF = 1 << 62


def _build(n, tails, heads, caps, costs):
    m = len(tails)
    to = [0] * (2 * m)
    cap = [0] * (2 * m)
    cst = [0] * (2 * m)
    nxt = [-1] * (2 * m)
    first = [-1] * n
    for i in range(m):
        t, h = tails[i], heads[i]
        e = 2 * i
        to[e], cap[e], cst[e] = h, caps[i], costs[i]
        nxt[e] = first[t]
        first[t] = e
        to[e + 1], cap[e + 1], cst[e + 1] = t, 0, -costs[i]
        nxt[e + 1] = first[h]
        first[h] = e + 1
    return to, cap, cst, nxt, first


def _bellman_ford(n, to, cap, cst, nxt, first, src):
    """Distances from src over positive-capacity edges; (dist, has_neg_cycle)."""
    dist = [INF] * n
    dist[src] = 0
    changed = True
    rounds = 0
    while changed and rounds <= n:
        changed = False
        rounds += 1
        for u in range(n):
            du = dist[u]
            if du >= INF:
                continue
            e = first[u]
            while e != -1:
                if cap[e] > 0 and du + cst[e] < dist[to[e]]:
                    dist[to[e]] = du + cst[e]
                    changed = True
                e = nxt[e]
    return dist, changed


def shortest_paths(n, tails, heads, caps, costs, flows, lowers, src):
    """Residual Bellman-Ford distances from src given per-arc flow.

    Residual forward capacity is cap - flow, backward is flow - lower.
    Returns (dist list with INF for unreachable, neg_cycle flag).
    """
    m = len(tails)
    rt, rh, rc, rcost = [], [], [], []
    for i in range(m):
        fwd = caps[i] - flows[i]
        bwd = flows[i] - lowers[i]
        if fwd > 0:
            rt.append(tails[i])
            rh.append(heads[i])
            rc.append(fwd)
            rcost.append(costs[i])
        if bwd > 0:
            rt.append(heads[i])
            rh.append(tails[i])
            rc.append(bwd)
            rcost.append(-costs[i])
    to, cap, cst, nxt, first = _build(n, rt, rh, rc, rcost)
    return _bellman_ford(n, to, cap, cst, nxt, first, src)


def mcmf(n, tails, heads, caps, costs, s, t, limit):
    """Min-cost flow from s to t via successive shortest augmenting paths.

    Pushes up to `limit` units (INF for max flow). Requires that no
    negative-cost cycle is reachable; negative arc costs are handled by a
    Bellman-Ford warm start for the potentials. Returns
    (value, flows per input arc, potentials).
    """
    m = len(tails)
    to, cap, cst, nxt, first = _build(n, tails, heads, caps, costs)
    pot = [0] * n
    if any(c < 0 for c in costs):
        dist, neg = _bellman_ford(n, to, cap, cst, nxt, first, s)
        if neg:
            raise ValueError("negative-cost cycle reachable from source")
        pot = dist
    value = 0
    prev = [-1] * n
    while limit > 0:
        dist = [INF] * n
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
                if cap[e] > 0 and not done[v] and pot[v] < INF:
                    nd = d + cst[e] + pu - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev[v] = e
                        heappush(heap, (nd, v))
                e = nxt[e]
        if dist[t] >= INF:
            break
        for v in range(n):
            if dist[v] < INF:
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
    return value, flows, pot
