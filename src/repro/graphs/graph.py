"""Undirected simple graph used by every algorithm in the package.

The graph is stored as a dictionary of adjacency *sets* which gives O(1)
expected-time edge queries and O(d(u)) neighbourhood iteration -- the access
pattern every branch-and-bound solver in this package relies on.  Vertices may
be arbitrary hashable labels; solvers that need contiguous integer ids call
:meth:`Graph.relabel`.

Only simple graphs are supported: self-loops raise
:class:`~repro.exceptions.SelfLoopError` and parallel edges are silently
collapsed (adding an existing edge is a no-op), matching the paper's setting
of unweighted, undirected simple graphs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..exceptions import EdgeNotFoundError, GraphError, SelfLoopError, VertexNotFoundError

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["Graph", "Vertex", "Edge"]


class Graph:
    """An unweighted, undirected simple graph.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs used to initialise the graph.
        Endpoints are added as vertices automatically.
    vertices:
        Optional iterable of vertices to add (possibly isolated).

    Examples
    --------
    >>> g = Graph(edges=[(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.has_edge(0, 1)
    True
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(
        self,
        edges: Optional[Iterable[Edge]] = None,
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._num_edges: int = 0
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an iterable of edges."""
        return cls(edges=edges)

    @classmethod
    def from_adjacency(cls, adjacency: Mapping[Vertex, Iterable[Vertex]]) -> "Graph":
        """Build a graph from an adjacency mapping ``{u: iterable_of_neighbors}``.

        The mapping does not need to be symmetric; every listed pair is added
        as an undirected edge.
        """
        g = cls()
        for u, nbrs in adjacency.items():
            g.add_vertex(u)
            for v in nbrs:
                g.add_edge(u, v)
        return g

    @classmethod
    def complete(cls, n: int) -> "Graph":
        """Return the complete graph on vertices ``0 .. n-1``."""
        g = cls(vertices=range(n))
        for u in range(n):
            for v in range(u + 1, n):
                g.add_edge(u, v)
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """Return the edgeless graph on vertices ``0 .. n-1``."""
        return cls(vertices=range(n))

    def copy(self) -> "Graph":
        """Return a deep copy of the graph (labels are shared, sets are not)."""
        g = Graph.__new__(Graph)
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices, ``n`` in the paper's notation."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, ``m`` in the paper's notation."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        return all(self._adj[v] == other._adj[v] for v in self._adj)

    def __hash__(self) -> int:  # Graphs are mutable; identity hash like list would be misleading.
        raise TypeError(
            "Graph objects are mutable and unhashable; use content_digest() "
            "for a canonical content key"
        )

    @staticmethod
    def _canonical_token(vertex: Vertex) -> str:
        # repr alone cannot be trusted across types (repr(1) == repr(1) is
        # fine, but distinct labels of different types could collide), so the
        # type name is folded in.
        return f"{type(vertex).__name__}:{vertex!r}"

    def content_digest(self) -> str:
        """Return a canonical SHA-256 hex digest of the graph's content.

        The digest depends only on the vertex labels and the edge set —
        never on insertion order — so two graphs that compare ``==`` always
        share a digest, and any edge/vertex change yields a new one.  This
        is the stable cache key :class:`Graph` deliberately refuses to
        provide via ``__hash__`` (graphs are mutable); callers such as the
        solver service's graph store key prepared artifacts and result
        caches by it.

        Vertices are canonicalised as ``"<type>:<repr>"`` strings, so the
        digest is defined for arbitrary (even unorderable, mixed-type)
        hashable labels as long as their ``repr`` is stable — true for the
        ints and strings produced by every loader in :mod:`repro.graphs.io`.
        """
        token = {v: self._canonical_token(v) for v in self._adj}
        h = hashlib.sha256()
        h.update("".join(t + "\x00" for t in sorted(token.values())).encode("utf-8"))
        h.update(b"\x01")  # domain separator: vertex section / edge section
        # Each edge is hashed as "<a>\x1f<b>\x00" with a <= b.  Sorting the
        # joined strings equals sorting the (a, b) pairs: a repr never holds
        # a control character, so "\x1f" sorts below every token character.
        edge_tokens = []
        for u, v in self.iter_edges():
            a, b = token[u], token[v]
            edge_tokens.append(a + "\x1f" + b if a <= b else b + "\x1f" + a)
        edge_tokens.sort()
        h.update("".join(e + "\x00" for e in edge_tokens).encode("utf-8"))
        return h.hexdigest()

    # ------------------------------------------------------------------ #
    # Vertex operations
    # ------------------------------------------------------------------ #
    def vertices(self) -> List[Vertex]:
        """Return a list of all vertices."""
        return list(self._adj)

    def vertex_set(self) -> Set[Vertex]:
        """Return the set of all vertices (a fresh copy)."""
        return set(self._adj)

    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` to the graph (no-op if already present)."""
        if vertex not in self._adj:
            self._adj[vertex] = set()

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Add every vertex from ``vertices``."""
        for v in vertices:
            self.add_vertex(v)

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all incident edges.

        Raises
        ------
        VertexNotFoundError
            If the vertex is not in the graph.
        """
        try:
            nbrs = self._adj.pop(vertex)
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        for u in nbrs:
            self._adj[u].discard(vertex)
        self._num_edges -= len(nbrs)

    def remove_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Remove every vertex in ``vertices`` (each must be present)."""
        for v in list(vertices):
            self.remove_vertex(v)

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` if ``vertex`` is in the graph."""
        return vertex in self._adj

    # ------------------------------------------------------------------ #
    # Edge operations
    # ------------------------------------------------------------------ #
    def edges(self) -> List[Edge]:
        """Return every undirected edge exactly once as ``(u, v)`` pairs."""
        seen: Set[Vertex] = set()
        result: List[Edge] = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    result.append((u, v))
            seen.add(u)
        return result

    def iter_edges(self) -> Iterator[Edge]:
        """Iterate over every undirected edge exactly once."""
        seen: Set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``(u, v)``, adding endpoints as needed.

        Adding an edge that already exists is a no-op.  Self-loops raise
        :class:`~repro.exceptions.SelfLoopError`.
        """
        if u == v:
            raise SelfLoopError(u)
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add every edge from ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``(u, v)``.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not in the graph.
        """
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1

    def remove_edges(self, edges: Iterable[Edge]) -> None:
        """Remove every edge in ``edges`` (each must be present)."""
        for u, v in list(edges):
            self.remove_edge(u, v)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    # ------------------------------------------------------------------ #
    # Neighbourhood queries
    # ------------------------------------------------------------------ #
    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return the set of neighbours of ``vertex`` (a live view; do not mutate).

        Raises
        ------
        VertexNotFoundError
            If the vertex is not in the graph.
        """
        try:
            return self._adj[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def degree(self, vertex: Vertex) -> int:
        """Return the degree of ``vertex``."""
        return len(self.neighbors(vertex))

    def degrees(self) -> Dict[Vertex, int]:
        """Return a mapping from vertex to its degree."""
        return {v: len(nbrs) for v, nbrs in self._adj.items()}

    def non_neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return all vertices that are neither ``vertex`` nor adjacent to it.

        This is :math:`\\overline{N}_G(u)` in the paper's notation.
        """
        nbrs = self.neighbors(vertex)
        return {v for v in self._adj if v != vertex and v not in nbrs}

    def common_neighbors(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Return the set of common neighbours of ``u`` and ``v``."""
        nu, nv = self.neighbors(u), self.neighbors(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        return {w for w in nu if w in nv}

    def adjacency(self) -> Dict[Vertex, FrozenSet[Vertex]]:
        """Return an immutable snapshot of the adjacency structure."""
        return {v: frozenset(nbrs) for v, nbrs in self._adj.items()}

    # ------------------------------------------------------------------ #
    # Subgraphs & relabeling
    # ------------------------------------------------------------------ #
    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by ``vertices`` (``G[S]`` in the paper).

        Vertices not present in the graph raise
        :class:`~repro.exceptions.VertexNotFoundError`.
        """
        keep = set(vertices)
        for v in keep:
            if v not in self._adj:
                raise VertexNotFoundError(v)
        g = Graph.__new__(Graph)
        g._adj = {v: self._adj[v] & keep for v in keep}
        g._num_edges = sum(len(nbrs) for nbrs in g._adj.values()) // 2
        return g

    def relabel(self) -> Tuple["Graph", Dict[Vertex, int], List[Vertex]]:
        """Relabel vertices to contiguous integers ``0 .. n-1``.

        Returns
        -------
        (graph, to_int, to_label):
            ``graph`` is the relabeled graph, ``to_int`` maps original labels
            to integer ids, and ``to_label[i]`` recovers the original label of
            integer ``i``.
        """
        to_label = list(self._adj)
        to_int = {label: i for i, label in enumerate(to_label)}
        g = Graph.__new__(Graph)
        g._adj = {
            to_int[v]: {to_int[u] for u in nbrs} for v, nbrs in self._adj.items()
        }
        g._num_edges = self._num_edges
        return g, to_int, to_label

    def complement(self) -> "Graph":
        """Return the complement graph on the same vertex set."""
        verts = list(self._adj)
        g = Graph(vertices=verts)
        for i, u in enumerate(verts):
            nbrs = self._adj[u]
            for v in verts[i + 1:]:
                if v not in nbrs:
                    g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------ #
    # Structural measures
    # ------------------------------------------------------------------ #
    def density(self) -> float:
        """Return the edge density ``2m / (n (n-1))`` (0.0 for n < 2)."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))

    def missing_edge_count(self) -> int:
        """Return the number of non-edges, ``|\\bar{E}(g)|`` in the paper."""
        n = self.num_vertices
        return n * (n - 1) // 2 - self._num_edges

    def missing_edges(self) -> List[Edge]:
        """Return every non-edge of the graph (quadratic; use on small graphs)."""
        verts = list(self._adj)
        result: List[Edge] = []
        for i, u in enumerate(verts):
            nbrs = self._adj[u]
            for v in verts[i + 1:]:
                if v not in nbrs:
                    result.append((u, v))
        return result

    def is_clique(self, vertices: Optional[Iterable[Vertex]] = None) -> bool:
        """Return ``True`` if the (sub)graph induced by ``vertices`` is a clique.

        With ``vertices=None`` the whole graph is tested (Definition 2.1).
        """
        if vertices is None:
            verts = list(self._adj)
        else:
            verts = list(set(vertices))
            for v in verts:
                if v not in self._adj:
                    raise VertexNotFoundError(v)
        for i, u in enumerate(verts):
            nbrs = self._adj[u]
            for v in verts[i + 1:]:
                if v not in nbrs:
                    return False
        return True

    def count_missing_edges(self, vertices: Iterable[Vertex]) -> int:
        """Return the number of non-edges inside the subgraph induced by ``vertices``."""
        verts = list(set(vertices))
        for v in verts:
            if v not in self._adj:
                raise VertexNotFoundError(v)
        n = len(verts)
        keep = set(verts)
        internal_edges = sum(len(self._adj[v] & keep) for v in verts) // 2
        return n * (n - 1) // 2 - internal_edges

    def triangle_count_per_edge(self) -> Dict[Edge, int]:
        """Return, for every edge, the number of triangles containing it.

        The edge key is normalised so that iteration order of its endpoints in
        the graph decides the tuple order, matching :meth:`edges`.
        """
        support: Dict[Edge, int] = {}
        for u, v in self.iter_edges():
            support[(u, v)] = len(self.common_neighbors(u, v))
        return support

    def validate(self) -> None:
        """Check internal invariants; raise :class:`GraphError` on corruption.

        Intended for tests and debugging: verifies symmetry of the adjacency
        structure, absence of self-loops, and the cached edge count.
        """
        count = 0
        for u, nbrs in self._adj.items():
            if u in nbrs:
                raise GraphError(f"self-loop stored on vertex {u!r}")
            for v in nbrs:
                if v not in self._adj:
                    raise GraphError(f"dangling neighbour {v!r} of {u!r}")
                if u not in self._adj[v]:
                    raise GraphError(f"asymmetric edge ({u!r}, {v!r})")
            count += len(nbrs)
        if count != 2 * self._num_edges:
            raise GraphError(
                f"edge count mismatch: cached {self._num_edges}, actual {count // 2}"
            )
