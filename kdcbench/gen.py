"""Seeded input generators for the kDC benchmark.

Everything the program under test receives is made here, with the
standard library only, so a change to the program's own generators or
dataset collections cannot silently change the workloads.

Each workload is built from *fixed structures* (graphs drawn once from
fixed structure seeds) and a run's ``--seed``: the seed picks a fresh
vertex relabelling, edge order and edge orientation for every input file or
request, and the order of the cells and requests.  The optimum size of a
graph does not depend on how its vertices are named, so the golden table in
``golden.json`` checks every answer of every seed, while the search itself
sees different inputs (different tie-breaks, digests and file bytes) from
seed to seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Sequence, Set, Tuple

Edge = Tuple[int, int]

#: structure seed of every fixed family (changing it changes the golden table)
STRUCTURE_SEED = 20231017

#: seed whose input digests are pinned in golden.json
DEFAULT_SEED = 0


# --------------------------------------------------------------------------- #
# Graph families
# --------------------------------------------------------------------------- #
def _add(edges: Set[Edge], u: int, v: int) -> None:
    if u != v:
        edges.add((u, v) if u < v else (v, u))


def community_graph(
    n: int,
    communities: int,
    intra_p: float,
    inter_p: float,
    hub_fraction: float,
    rng: random.Random,
) -> List[Edge]:
    """Facebook-style graph: dense communities, sparse cross edges, a few hubs."""
    label = [rng.randrange(communities) for _ in range(n)]
    members: List[List[int]] = [[] for _ in range(communities)]
    for v, c in enumerate(label):
        members[c].append(v)
    edges: Set[Edge] = set()
    for group in members:
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                if rng.random() < intra_p:
                    _add(edges, u, v)
    for _ in range(int(inter_p * n * communities)):
        u, v = rng.randrange(n), rng.randrange(n)
        if label[u] != label[v]:
            _add(edges, u, v)
    for hub in rng.sample(range(n), max(1, int(hub_fraction * n))):
        for v in rng.sample(range(n), min(n - 1, max(5, n // 20))):
            _add(edges, hub, v)
    return sorted(edges)


def holme_kim_graph(n: int, m: int, p: float, rng: random.Random) -> List[Edge]:
    """Holme–Kim power-law-cluster graph: preferential attachment + triad closure."""
    adj: List[Set[int]] = [set() for _ in range(n)]
    ends: List[int] = []

    def link(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)
        ends.extend((u, v))

    for v in range(1, m + 1):
        link(0, v)
    for v in range(m + 1, n):
        added = 0
        while added < m:
            target = rng.choice(ends)
            if target == v or target in adj[v]:
                continue
            link(v, target)
            added += 1
            if added < m and rng.random() < p:
                closing = [u for u in adj[target] if u != v and u not in adj[v]]
                if closing:
                    link(v, rng.choice(closing))
                    added += 1
    return sorted((u, v) for u in range(n) for v in adj[u] if u < v)


def gnm_graph(n: int, m: int, rng: random.Random) -> List[Edge]:
    """Uniform G(n, m): ``m`` distinct edges by rejection sampling."""
    edges: Set[Edge] = set()
    while len(edges) < m:
        _add(edges, rng.randrange(n), rng.randrange(n))
    return sorted(edges)


def gnp_graph(n: int, p: float, rng: random.Random) -> List[Edge]:
    """G(n, p) by a full pair scan (only used for small ``n``)."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


# --------------------------------------------------------------------------- #
# Fixed structures of the workloads
# --------------------------------------------------------------------------- #
def dense_structures() -> List[Tuple[str, int, List[Edge]]]:
    """Ten community graphs shaped like the socfb_00..09 family (n 100–208)."""
    out = []
    for i in range(10):
        rng = random.Random(STRUCTURE_SEED * 100 + i)
        n = 100 + 12 * i
        edges = community_graph(
            n, communities=5 + i % 4, intra_p=0.45 + 0.03 * (i % 3),
            inter_p=0.01, hub_fraction=0.02, rng=rng,
        )
        out.append((f"fb{i:02d}", n, edges))
    return out


DENSE_KS = (1, 3, 5)


def sparse_structures() -> List[Tuple[str, int, List[Edge]]]:
    """A Holme–Kim graph and a G(n, m) graph, each with ~10^5 edges."""
    n = 50_000
    return [
        ("holme_kim", n, holme_kim_graph(n, 2, 0.5, random.Random(STRUCTURE_SEED + 1))),
        ("gnm", n, gnm_graph(n, 100_000, random.Random(STRUCTURE_SEED + 2))),
    ]


SPARSE_KS = (1, 3)


#: graphs in the ``service-mix`` pool
POOL_SIZE = 24


def service_pool() -> List[Tuple[str, int, List[Edge]]]:
    """First-touch graphs of ``service-mix``: small community graphs, n 100–300."""
    out = []
    for i in range(POOL_SIZE):
        rng = random.Random(STRUCTURE_SEED * 1000 + i)
        n = 100 + (200 * i) // (POOL_SIZE - 1)
        edges = community_graph(
            n, communities=6 + i % 3, intra_p=0.30, inter_p=0.01,
            hub_fraction=0.02, rng=rng,
        )
        out.append((f"svc{i:02d}", n, edges))
    return out


#: vertices and edge probability of the mutation chain's base graph
CHAIN_N = 1000
CHAIN_P = 0.008
#: deltas in the chain; more than one client thread can apply in a run
CHAIN_LENGTH = 600
#: vertices the chain's added edges fall between
CHAIN_HOT = 60
#: added edges alive at once; older ones are removed again
CHAIN_WINDOW = 300


def chain_structure() -> Tuple[int, List[Edge], List[Tuple[List[Edge], List[Edge]]]]:
    """Base G(1000, 0.008) plus a fixed stream of small edge deltas.

    Every delta adds two edges inside a fixed "hot" set of vertices (like
    citations piling onto a hot topic) and, once ``CHAIN_WINDOW`` such edges
    exist, removes the two oldest.  The hot region's density therefore stops
    growing after the first steps, so the cost of a solve does not drift
    with how far along the chain a run gets, while the optimum still moves.
    """
    rng = random.Random(STRUCTURE_SEED + 3)
    edges = set(gnp_graph(CHAIN_N, CHAIN_P, rng))
    base = sorted(edges)
    hot = rng.sample(range(CHAIN_N), CHAIN_HOT)
    window: List[Edge] = []
    deltas = []
    for _ in range(CHAIN_LENGTH):
        adds: List[Edge] = []
        while len(adds) < 2:
            u, v = rng.sample(hot, 2)
            e = (u, v) if u < v else (v, u)
            if e not in edges and e not in adds:
                adds.append(e)
        removes = window[:2] if len(window) >= CHAIN_WINDOW else []
        del window[:len(removes)]
        window.extend(adds)
        edges.difference_update(removes)
        edges.update(adds)
        deltas.append((adds, removes))
    return CHAIN_N, base, deltas


# --------------------------------------------------------------------------- #
# Seeded relabelling
# --------------------------------------------------------------------------- #
def permutation(n: int, rng: random.Random) -> List[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(edges: Sequence[Edge], perm: Sequence[int], rng: random.Random) -> List[Edge]:
    """Rename vertices by ``perm``, then shuffle edge order and orientation."""
    out = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        out.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(out)
    return out


def relabelled(n: int, edges: Sequence[Edge], *rng_parts: object
               ) -> Tuple[List[Edge], List[int], Dict[int, int]]:
    """One seeded relabelling: ``(edges, perm, inverse)``, ``inverse[perm[v]] == v``."""
    perm = permutation(n, instance_rng(*rng_parts))
    out = relabel(edges, perm, instance_rng(*rng_parts, "e"))
    return out, perm, {label: v for v, label in enumerate(perm)}


def edge_list_bytes(edges: Sequence[Edge]) -> bytes:
    return "".join(f"{u} {v}\n" for u, v in edges).encode("ascii")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def instance_rng(seed: int, *parts: object) -> random.Random:
    """A generator for one named input of one seed (independent of call order)."""
    key = ":".join(str(p) for p in (seed,) + parts)
    return random.Random(int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big"))


def cells(names: Sequence[str], ks: Sequence[int], seed: int, r: int) -> List[Tuple[str, int]]:
    """All (graph, k) cells, in the order of round ``r`` of ``seed``."""
    out = [(name, k) for name in names for k in ks]
    instance_rng(seed, "cell-order", r).shuffle(out)
    return out


def structure_digest(structures: Sequence[Tuple[str, int, Sequence[Edge]]]) -> str:
    """Digest of fixed structures; independent of the seed."""
    h = hashlib.sha256()
    for name, n, edges in structures:
        h.update(f"{name} {n}\n".encode("ascii"))
        h.update(edge_list_bytes(edges))
    return h.hexdigest()


def adjacency(n: int, edges: Sequence[Edge]) -> Dict[int, Set[int]]:
    adj: Dict[int, Set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj
