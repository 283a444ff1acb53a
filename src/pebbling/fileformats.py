"""Line-oriented text formats for graphs, configurations and weights.

All three formats share the shape: a mandatory version header, then one
record per line, '#' starting comment lines, UTF-8 with LF endings.
Serialization is canonical (sorted ids, reduced fractions, zero records
omitted), so parse-serialize round-trips are byte identical on
canonical files.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .configurations import Configuration
from .errors import ParseError, VersionMismatchError
from .graphs import Graph, build_graph
from .strategies import WeightFunction

GRAPH_HEADER = "pebblegraph"
CONFIG_HEADER = "pebbleconfig"
WEIGHTS_HEADER = "pebbleweights"
COPIES_HEADER = "pebblecopies"
FORMAT_VERSION = 1


def _content_lines(text: str):
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield idx, line


def _check_header(lines, expected: str):
    try:
        idx, line = next(lines)
    except StopIteration:
        raise ParseError(1, f"missing {expected!r} header") from None
    parts = line.split()
    if len(parts) != 2 or parts[0] != expected:
        raise ParseError(idx, f"expected {expected!r} header, got {line!r}")
    if parts[1] != str(FORMAT_VERSION):
        raise VersionMismatchError(f"unsupported {expected} version {parts[1]!r}")


def _int(idx: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(idx, f"expected an integer, got {token!r}") from None


def parse_fraction(idx: int, token: str) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(idx, f"expected a fraction, got {token!r}") from None


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# -- graphs -----------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    lines = _content_lines(text)
    _check_header(lines, GRAPH_HEADER)
    header: dict[str, tuple[int, int]] = {}
    edges: dict[tuple[int, int], int] = {}
    labels: dict[int, tuple[int, str]] = {}
    for idx, line in lines:
        parts = line.split()
        kind = parts[0]
        if kind in ("vertices", "root") and len(parts) == 2:
            if kind in header:
                raise ParseError(idx, f"duplicate {kind!r} record")
            header[kind] = (idx, _int(idx, parts[1]))
        elif kind == "edge" and len(parts) == 3:
            u, v = _int(idx, parts[1]), _int(idx, parts[2])
            if u == v:
                raise ParseError(idx, f"self-loop at vertex {u}")
            edge = (min(u, v), max(u, v))
            if edge in edges:
                raise ParseError(idx, f"duplicate edge {edge}")
            edges[edge] = idx
        elif kind == "label" and len(parts) >= 3:
            v = _int(idx, parts[1])
            if v in labels:
                raise ParseError(idx, f"duplicate label for vertex {v}")
            labels[v] = (idx, line.split(None, 2)[2])
        else:
            raise ParseError(idx, f"unrecognized record {line!r}")
    for kind in ("vertices", "root"):
        if kind not in header:
            raise ParseError(1, f"missing {kind!r} record")
    (n_idx, n), (root_idx, root) = header["vertices"], header["root"]
    if n < 1:
        raise ParseError(n_idx, "vertex count must be at least 1")
    if not 0 <= root < n:
        raise ParseError(root_idx, f"root {root} out of range [0, {n})")
    for (u, v), idx in edges.items():
        if u < 0 or v >= n:
            raise ParseError(idx, f"edge {u} {v} out of range [0, {n})")
    for v, (idx, _) in labels.items():
        if not 0 <= v < n:
            raise ParseError(idx, f"label for vertex {v} out of range [0, {n})")
    label_tuple = None
    if labels:
        label_tuple = tuple(labels[v][1] if v in labels else str(v) for v in range(n))
    return build_graph(n, list(edges), root, labels=label_tuple)


def serialize_graph(g: Graph) -> str:
    out = [f"{GRAPH_HEADER} {FORMAT_VERSION}", f"vertices {g.vertex_count}", f"root {g.root}"]
    for u, v in g.edges:
        out.append(f"edge {u} {v}")
    if g.labels is not None:
        for v in range(g.vertex_count):
            out.append(f"label {v} {g.labels[v]}")
    return "\n".join(out) + "\n"


# -- configurations ----------------------------------------------------------


def parse_config(text: str, g: Graph) -> Configuration:
    lines = _content_lines(text)
    _check_header(lines, CONFIG_HEADER)
    counts = [0] * g.vertex_count
    seen = set()
    for idx, line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "p":
            raise ParseError(idx, f"unrecognized record {line!r}")
        v, c = _int(idx, parts[1]), _int(idx, parts[2])
        if not 0 <= v < g.vertex_count:
            raise ParseError(idx, f"vertex {v} out of range")
        if v in seen:
            raise ParseError(idx, f"duplicate count for vertex {v}")
        if c < 0:
            raise ParseError(idx, "counts must be nonnegative")
        seen.add(v)
        counts[v] = c
    return Configuration(g, tuple(counts))


def serialize_config(p: Configuration) -> str:
    out = [f"{CONFIG_HEADER} {FORMAT_VERSION}"]
    for v, c in enumerate(p.counts):
        if c:
            out.append(f"p {v} {c}")
    return "\n".join(out) + "\n"


# -- weight functions ---------------------------------------------------------


def parse_weights(text: str, g: Graph) -> WeightFunction:
    lines = _content_lines(text)
    _check_header(lines, WEIGHTS_HEADER)
    weights = [Fraction(0)] * g.vertex_count
    seen = set()
    for idx, line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "w":
            raise ParseError(idx, f"unrecognized record {line!r}")
        v = _int(idx, parts[1])
        if not 0 <= v < g.vertex_count:
            raise ParseError(idx, f"vertex {v} out of range")
        if v in seen:
            raise ParseError(idx, f"duplicate weight for vertex {v}")
        seen.add(v)
        weights[v] = parse_fraction(idx, parts[2])
    return WeightFunction(g, tuple(weights))


def serialize_weights(w: WeightFunction) -> str:
    out = [f"{WEIGHTS_HEADER} {FORMAT_VERSION}"]
    for v, x in enumerate(w.weights):
        if x:
            out.append(f"w {v} {format_fraction(x)}")
    return "\n".join(out) + "\n"


# -- decomposition manifests ---------------------------------------------------


def parse_copies_manifest(text: str, base_dir, g: Graph) -> list[tuple[tuple[int, ...], WeightFunction]]:
    """Copies for decomposition checks: per copy a weight file and an
    embedding given as ``map <sub-id> <ambient-id>`` lines.

    The base graph of each copy is the induced subgraph of the ambient
    graph on the mapped vertices, so sub-ids must be dense from 0.
    """
    base_dir = Path(base_dir)
    lines = _content_lines(text)
    _check_header(lines, COPIES_HEADER)
    raw: list[tuple[int, str, dict[int, int]]] = []
    current: dict[int, int] | None = None
    for idx, line in lines:
        parts = line.split()
        if parts[0] == "copy" and len(parts) == 2:
            current = {}
            raw.append((idx, parts[1], current))
        elif parts[0] == "map" and len(parts) == 3:
            if current is None:
                raise ParseError(idx, "'map' before any 'copy'")
            sub, amb = _int(idx, parts[1]), _int(idx, parts[2])
            if sub in current:
                raise ParseError(idx, f"duplicate map for sub-vertex {sub}")
            current[sub] = amb
        else:
            raise ParseError(idx, f"unrecognized record {line!r}")
    copies = []
    for idx, weight_path, mapping in raw:
        if sorted(mapping) != list(range(len(mapping))):
            raise ParseError(idx, "sub-vertex ids must be dense from 0")
        k = len(mapping)
        embedding = tuple(mapping[i] for i in range(k))
        if len(set(embedding)) != k:
            raise ParseError(idx, "embedding maps two sub-vertices to one vertex")
        if any(not 0 <= a < g.vertex_count for a in embedding):
            raise ParseError(idx, "embedding target out of range")
        if g.root not in embedding:
            raise ParseError(idx, "no sub-vertex maps to the root")
        # the copy's base graph is the induced subgraph in manifest numbering
        edges = [
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if g.has_edge(embedding[i], embedding[j])
        ]
        base = build_graph(k, edges, root=embedding.index(g.root))
        wtext = (base_dir / weight_path).read_text(encoding="utf-8")
        copies.append((embedding, parse_weights(wtext, base)))
    return copies
