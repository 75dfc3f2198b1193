"""METIS-like element partitioning for domain decomposition.

The paper parallelises NekTar-ALE with "a multi-level graph
decomposition method (METIS) ... extended to suit the specific
characteristics of the spectral/hp method" (Section 4).  This module
provides the same service on the element dual graph:

* ``strips``    — naive coordinate-sorted strips (the baseline any
  graph partitioner must beat),
* ``spectral``  — recursive spectral bisection (Fiedler vector),
* ``multilevel``— METIS-style: heavy-edge-matching coarsening, spectral
  partition of the coarse graph, uncoarsening with greedy
  Kernighan-Lin boundary refinement.

Quality metrics (edge cut, imbalance) drive both the tests and the
gather-scatter communication volume in the ALE cost model.

networkx is imported by the functions that build or query graphs, so
importing :mod:`repro.mesh` does not pay for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "partition_mesh",
    "partition_graph",
    "edge_cut",
    "imbalance",
    "interface_edges",
]


def partition_mesh(mesh, nparts: int, method: str = "multilevel") -> np.ndarray:
    """Assign each element of ``mesh`` to one of ``nparts`` parts."""
    if method == "strips":
        return _strips(mesh, nparts)
    return partition_graph(mesh.dual_graph(), nparts, method=method)


def partition_graph(
    g: nx.Graph, nparts: int, method: str = "multilevel", seed: int = 0
) -> np.ndarray:
    """Partition an undirected graph into ``nparts`` balanced parts."""
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    n = g.number_of_nodes()
    if nparts > n:
        raise ValueError("more parts than graph nodes")
    if method not in ("spectral", "multilevel"):
        raise ValueError(f"unknown method {method!r}")
    parts = np.zeros(n, dtype=np.int64)
    _recurse(g, list(g.nodes), nparts, 0, parts, method, seed)
    return parts


def _strips(mesh, nparts: int) -> np.ndarray:
    order = np.argsort(mesh.centroids()[:, 0], kind="stable")
    parts = np.empty(mesh.nelements, dtype=np.int64)
    bounds = np.linspace(0, mesh.nelements, nparts + 1).astype(int)
    for p in range(nparts):
        parts[order[bounds[p] : bounds[p + 1]]] = p
    return parts


def _recurse(g, nodes, nparts, base, parts, method, seed) -> None:
    if nparts == 1:
        for v in nodes:
            parts[v] = base
        return
    nleft = nparts // 2
    target_left = round(len(nodes) * nleft / nparts)
    left, right = _bisect(g.subgraph(nodes), target_left, method, seed)
    _recurse(g, left, nleft, base, parts, method, seed + 1)
    _recurse(g, right, nparts - nleft, base + nleft, parts, method, seed + 2)


def _bisect(g: nx.Graph, target_left: int, method: str, seed: int):
    nodes = list(g.nodes)
    if target_left <= 0:
        return [], nodes
    if target_left >= len(nodes):
        return nodes, []
    if method == "multilevel" and len(nodes) > 64:
        return _multilevel_bisect(g, target_left, seed)
    order = _spectral_order(g, seed)
    left = set(order[:target_left])
    left = _kl_refine(g, left, target_left)
    return sorted(left), sorted(set(nodes) - left)


def _spectral_order(g: nx.Graph, seed: int) -> list:
    """Nodes sorted by the Fiedler vector (graph's second eigenvector)."""
    import networkx as nx

    nodes = list(g.nodes)
    if len(nodes) <= 2:
        return nodes
    if not nx.is_connected(g):
        # Order components one after another (still yields a valid split).
        out = []
        for comp in nx.connected_components(g):
            sub = g.subgraph(comp)
            out.extend(_spectral_order(sub, seed))
        return out
    try:
        fiedler = nx.fiedler_vector(g, seed=seed, method="tracemin_lu")
    except (nx.NetworkXError, np.linalg.LinAlgError):
        return nodes
    return [nodes[i] for i in np.argsort(fiedler)]


def _multilevel_bisect(g: nx.Graph, target_left: int, seed: int):
    """Coarsen by heavy-edge matching, split coarse, project back, refine."""
    import networkx as nx

    matching = _heavy_edge_matching(g, seed)
    coarse = nx.Graph()
    rep: dict = {}
    weight: dict = {}
    for v in g.nodes:
        u = matching.get(v)
        rep[v] = min(v, u) if u is not None else v
    for v in g.nodes:
        r = rep[v]
        weight[r] = weight.get(r, 0) + 1
        coarse.add_node(r)
    for a, b in g.edges:
        ra, rb = rep[a], rep[b]
        if ra != rb:
            w = coarse.get_edge_data(ra, rb, {"weight": 0})["weight"]
            coarse.add_edge(ra, rb, weight=w + 1)
    # Split the coarse graph so that expanded sizes hit the target.
    order = _spectral_order(coarse, seed)
    left_coarse: set = set()
    size = 0
    for r in order:
        if size >= target_left:
            break
        left_coarse.add(r)
        size += weight[r]
    left = {v for v in g.nodes if rep[v] in left_coarse}
    left = _trim_to_size(g, left, target_left)
    left = _kl_refine(g, left, target_left)
    return sorted(left), sorted(set(g.nodes) - left)


def _heavy_edge_matching(g: nx.Graph, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    matched: dict = {}
    for v in nodes:
        if v in matched:
            continue
        for u in g.neighbors(v):
            if u not in matched and u != v:
                matched[v] = u
                matched[u] = v
                break
    return matched


def _trim_to_size(g: nx.Graph, left: set, target: int) -> set:
    """Move boundary nodes until |left| == target, preferring low-gain moves."""
    left = set(left)
    while len(left) != target:
        grow = len(left) < target
        pool = (set(g.nodes) - left) if grow else left
        best, best_gain = None, None
        for v in pool:
            nin = sum(1 for u in g.neighbors(v) if u in left)
            nout = g.degree[v] - nin
            gain = (nin - nout) if grow else (nout - nin)
            if best_gain is None or gain > best_gain:
                best, best_gain = v, gain
        if best is None:
            break
        if grow:
            left.add(best)
        else:
            left.remove(best)
    return left


def _kl_refine(g: nx.Graph, left: set, target: int, passes: int = 4) -> set:
    """Greedy pairwise-swap Kernighan-Lin refinement at fixed sizes."""
    left = _trim_to_size(g, set(left), target)
    right = set(g.nodes) - left

    def gain(v, own, other):
        nin = sum(1 for u in g.neighbors(v) if u in own)
        nout = sum(1 for u in g.neighbors(v) if u in other)
        return nout - nin

    for _ in range(passes):
        lb = [v for v in left if any(u in right for u in g.neighbors(v))]
        rb = [v for v in right if any(u in left for u in g.neighbors(v))]
        best_pair, best_gain = None, 0
        for a in lb:
            ga = gain(a, left, right)
            for b in rb:
                gb = gain(b, right, left)
                coupled = 2 if g.has_edge(a, b) else 0
                total = ga + gb - coupled
                if total > best_gain:
                    best_pair, best_gain = (a, b), total
        if best_pair is None:
            break
        a, b = best_pair
        left.remove(a)
        right.remove(b)
        left.add(b)
        right.add(a)
    return left


def edge_cut(g: nx.Graph, parts: np.ndarray) -> int:
    """Number of graph edges whose endpoints are in different parts."""
    return sum(1 for a, b in g.edges if parts[a] != parts[b])


def imbalance(parts: np.ndarray, nparts: int) -> float:
    """max part size / ideal size (1.0 = perfectly balanced)."""
    sizes = np.bincount(parts, minlength=nparts)
    return float(sizes.max() * nparts / parts.size)


def interface_edges(mesh, parts: np.ndarray) -> list[int]:
    """Global mesh-edge ids on partition interfaces (the dofs the
    gather-scatter library must exchange)."""
    out = []
    for edge in mesh.edges:
        if len(edge.elements) == 2:
            (e0, _), (e1, _) = edge.elements
            if parts[e0] != parts[e1]:
                out.append(edge.id)
    return out
