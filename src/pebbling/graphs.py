"""Rooted undirected graphs: validation, distances, family generators.

Vertices are dense 0-based indices; human-readable names (coordinate
tuples, path positions) live in the optional ``labels`` field only, so
search structures stay flat arrays. A graph stores no symmetry: the
down-set reads it off the edges, however the graph was built, through
twin_classes and root_automorphisms, each cached on the graph.

build_graph checks connectivity with the one BFS of distances_from and
leaves the root's distances cached, so no later reader runs a second
BFS from the root. rooted_cube(n) is hypercube(n - 1) plus a pendant root.
generate and strategies.construction check a name and its parameters in _named.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import BadParameterError

Perm = tuple[int, ...]
Edge = tuple[int, int]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable rooted graph.

    Equality is identity; configurations and weight functions are bound
    to one specific Graph object.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    root: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        nbrs: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        object.__setattr__(self, "neighbors", tuple(tuple(sorted(a)) for a in nbrs))
        object.__setattr__(self, "_cache", {})

    @property
    def edge_set(self) -> frozenset[Edge]:
        cache = self._cache
        if "edge_set" not in cache:
            cache["edge_set"] = frozenset(self.edges)
        return cache["edge_set"]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_set


def _check_int(what: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadParameterError(f"{what} must be an integer, not {value!r}")


def _check_vertex(g_or_n, v: int) -> None:
    _check_int("vertex", v)
    n = g_or_n.vertex_count if isinstance(g_or_n, Graph) else g_or_n
    if not (0 <= v < n):
        raise BadParameterError(f"vertex {v} out of range [0, {n})")


def build_graph(vertex_count: int, edges, root: int, labels=None) -> Graph:
    """Validate and construct a rooted graph.

    Rejects a vertex count, root or endpoint that is not an int,
    self-loops, duplicate edges, out-of-range roots, disconnected inputs
    and labels that a graph file cannot carry.
    """
    _check_int("vertex_count", vertex_count)
    _check_int("root", root)
    if vertex_count < 1:
        raise BadParameterError("vertex_count must be at least 1")
    if not (0 <= root < vertex_count):
        raise BadParameterError(f"root {root} out of range [0, {vertex_count})")

    norm: list[Edge] = []
    seen: set[Edge] = set()
    for u, v in edges:
        _check_vertex(vertex_count, u)
        _check_vertex(vertex_count, v)
        if u == v:
            raise BadParameterError(f"self-loop at vertex {u}")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise BadParameterError(f"duplicate edge {e}")
        seen.add(e)
        norm.append(e)
    norm.sort()

    labels = None if labels is None else tuple(labels)
    g = Graph(vertex_count, tuple(norm), root, labels)
    unreached = distances_from(g, root).count(-1)
    if unreached:
        raise BadParameterError(
            f"graph is disconnected: reached {vertex_count - unreached} of {vertex_count} vertices"
        )
    if labels is not None and len(labels) != vertex_count:
        raise BadParameterError("labels length mismatch")
    for v, label in enumerate(labels or ()):  # a graph file holds each label on one stripped line
        if not (isinstance(label, str) and label == label.strip() and label.splitlines() == [label]):
            raise BadParameterError(
                f"label of vertex {v} is {label!r}, not a non-empty one-line string without outer spaces"
            )
    return g


def twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The classes of two or more twins off the root, each sorted.

    Swapping two non-root vertices a, b is an automorphism exactly when
    N(a) - {b} = N(b) - {a}: when they are open twins (N(a) = N(b), so
    never adjacent) or adjacent twins (N[a] = N[b]). Both relations are
    equivalences, and no vertex has twins of both kinds: an adjacent
    twin c of a is in N(a) = N(b) for an open twin b, so b would be in
    N[c] = N[a]. So the classes are disjoint. Cached on the graph.
    """
    cache = g._cache
    if "twin_classes" not in cache:
        classes: dict[tuple, list[int]] = {}
        for v, nbrs in enumerate(g.neighbors):
            if v != g.root:
                classes.setdefault((False, nbrs), []).append(v)
                classes.setdefault((True, tuple(sorted(nbrs + (v,)))), []).append(v)
        cache["twin_classes"] = tuple(sorted(tuple(c) for c in classes.values() if len(c) > 1))
    return cache["twin_classes"]


GROUP_SIZE_CAP = 10_000


def root_automorphisms(g: Graph, check=None) -> tuple[Perm, ...] | None:
    """Every automorphism of g that fixes the root, sorted, or None past
    GROUP_SIZE_CAP of them. Cached on the graph once complete.

    A backtracking over the vertices nearest the root first, ties to the
    smaller id. A vertex's image is an unused neighbour of its parent's
    image (the parent: its first neighbour placed), of the same distance
    and degree, adjacent to the images of exactly its neighbours placed
    before it. So every full map keeps adjacency both ways, and every
    root-fixing automorphism meets each condition. The walk keeps its
    own stack, so a long path does not recurse once per vertex, and
    calls ``check`` (Solver.check_limits, say) every 1,024 placements.
    """
    cache = g._cache
    if "automorphisms" in cache:
        return cache["automorphisms"]
    n, nbrs, root = g.vertex_count, g.neighbors, g.root
    dist = distances_from(g, root)
    order = sorted(range(n), key=lambda v: (dist[v], v))
    pos = {v: i for i, v in enumerate(order)}
    sig = [(dist[v], len(nbrs[v])) for v in range(n)]
    # the neighbours placed before each vertex, in order, the parent first
    back = [sorted((u for u in nbrs[v] if pos[u] < pos[v]), key=pos.get) for v in order]
    adjacent = [frozenset(a) for a in nbrs]
    # image[v] is -1 until v is placed
    image, used = [-1] * n, [False] * n
    image[root], used[root] = root, True

    def candidates(i):
        v, seen = order[i], [image[u] for u in back[i]]
        fits = [w for w in nbrs[seen[0]] if not used[w] and sig[w] == sig[v] and adjacent[w].issuperset(seen)]
        return iter([w for w in fits if sum(map(used.__getitem__, nbrs[w])) == len(seen)])

    group, pending, i, placed = [], [None] * n, min(n - 1, 1), 0
    if i:
        pending[1] = candidates(1)
    else:
        group.append((root,))
    while i:
        v = order[i]
        if image[v] >= 0:
            used[image[v]] = False
        image[v] = w = next(pending[i], -1)
        if w < 0:
            i -= 1
            continue
        used[w] = True
        placed += 1
        if check and not placed & 1023:
            check()
        if i < n - 1:
            i += 1
            pending[i] = candidates(i)
        else:
            group.append(tuple(image))
            if len(group) > GROUP_SIZE_CAP:
                group = None
                break
    cache["automorphisms"] = out = None if group is None else tuple(sorted(group))
    return out


def distances_from(g: Graph, src: int) -> tuple[int, ...]:
    """Breadth-first distances from ``src`` to every vertex."""
    _check_vertex(g, src)
    cache = g._cache
    key = ("dist", src)
    if key in cache:
        return cache[key]
    dist = [-1] * g.vertex_count
    dist[src] = 0
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in g.neighbors[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    out = tuple(dist)
    cache[key] = out
    return out


def distance(g: Graph, u: int, v: int) -> int:
    _check_vertex(g, v)
    return distances_from(g, u)[v]


def diameter(g: Graph) -> int:
    cache = g._cache
    if "diameter" not in cache:
        cache["diameter"] = max(max(distances_from(g, v)) for v in range(g.vertex_count))
    return cache["diameter"]


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------


def _coordinate_label(value: int, n_bits: int) -> str:
    return "(" + ",".join(str((value >> i) & 1) for i in range(n_bits)) + ")"


@lru_cache(maxsize=None)
def path_graph(k: int) -> Graph:
    """The path on k+1 vertices rooted at one end.

    Vertex i carries label v_i and sits at distance k-i from the root,
    which is the last index.
    """
    _check_int("path length", k)
    if k < 1:
        raise BadParameterError("path length must be at least 1")
    labels = tuple(f"v_{i}" for i in range(k)) + ("r",)
    return build_graph(k + 1, [(i, i + 1) for i in range(k)], root=k, labels=labels)


@lru_cache(maxsize=None)
def cycle_graph(length: int) -> Graph:
    _check_int("cycle length", length)
    if length < 3:
        raise BadParameterError("cycle length must be at least 3")
    edges = [(i, (i + 1) % length) for i in range(length)]
    return build_graph(length, edges, root=0)


@lru_cache(maxsize=None)
def hypercube(n: int) -> Graph:
    """Q_n rooted at the all-zeros vertex; vertex ids are coordinate words."""
    _check_int("hypercube dimension", n)
    if n < 1:
        raise BadParameterError("hypercube dimension must be at least 1")
    size = 1 << n
    edges = []
    for v in range(size):
        for b in range(n):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    labels = tuple(_coordinate_label(v, n) for v in range(size))
    return build_graph(size, edges, root=0, labels=labels)


@lru_cache(maxsize=None)
def rooted_cube(n: int) -> Graph:
    """A pendant root attached to the all-zeros vertex of Q_{n-1}.

    Built from ``hypercube(n - 1)``: cube vertex v becomes 1 + v, the
    root 0 hangs off vertex 1.
    Cube vertices keep their coordinate labels; the 4-dimensional
    instance instead carries the conventional u/x_i/y_i/z names of its
    figure (u adjacent to the root, z opposite).
    """
    _check_int("rooted cube dimension", n)
    if n < 2:
        raise BadParameterError("rooted cube needs dimension at least 2")
    q = hypercube(n - 1)
    edges = [(0, 1)] + [(1 + u, 1 + v) for u, v in q.edges]
    # indexed by the coordinate word; y_i is the vertex missing coordinate i
    cube_labels = ("u", "x_1", "x_2", "y_3", "x_3", "y_2", "y_1", "z") if n == 4 else q.labels
    return build_graph(q.vertex_count + 1, edges, root=0, labels=("r", *cube_labels))


def lollipop(n: int, m: int | None = None) -> Graph:
    """Path of length n from the root into a bundle of m parallel
    length-2 paths sharing both endpoints.

    Ids: root 0, then v_n .. v_1 along the path, u_0 (far shared
    endpoint), u_1 .. u_m (middles, which are twins). Defaults to
    m = 2^(n+1) arms, resolved and checked before the cache, whose key
    (1, True) would find (1, 1): one graph per (n, m).
    """
    _check_int("path length", n)
    if n < 1:
        raise BadParameterError("path length must be at least 1")
    m = 1 << (n + 1) if m is None else m
    _check_int("parallel path count", m)
    return _lollipop(n, m)


@lru_cache(maxsize=None)
def _lollipop(n: int, m: int) -> Graph:
    if m < 1:
        raise BadParameterError("need at least one parallel path")
    v1 = n
    u0 = n + 1
    edges = [(i, i + 1) for i in range(n)]
    for i in range(1, m + 1):
        edges.append((v1, u0 + i))
        edges.append((u0, u0 + i))
    labels = ("r",) + tuple(f"v_{n - i}" for i in range(n)) + ("u_0",) + tuple(f"u_{i}" for i in range(1, m + 1))
    return build_graph(n + m + 2, edges, root=0, labels=labels)


_FAMILIES = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "hypercube": (hypercube, 1),
    "rooted_cube": (rooted_cube, 1),
    "lollipop": (lollipop, (1, 2)),
    "fig2": (lambda: rooted_cube(3), 0),
    "lemma5": (lambda: rooted_cube(4), 0),
}


def _named(table, what: str, name: str, params):
    """Call ``name``'s builder in a {name: (builder, count or counts)} table
    once the count and each parameter are checked: True is not the int 1."""
    if name not in table:
        raise BadParameterError(f"unknown {what} {name!r}; choose from {sorted(table)}")
    build, counts = table[name]
    counts = (counts,) if isinstance(counts, int) else counts
    if len(params) not in counts:
        raise BadParameterError(f"{what} {name!r} takes {counts} parameter(s), got {len(params)}")
    for p in params:
        _check_int(f"{name} parameter", p)
    return build(*params)


def generate(family: str, *params: int) -> Graph:
    """Build a graph family instance by name, e.g. generate("lollipop", 1, 4)."""
    return _named(_FAMILIES, "family", family, params)
