"""Shared fixtures and independent reference oracles.

The reference solver here is a plain breadth-first walk over the move
graph with none of the package's pruning, canonicalization or
memoization; agreement between the two is the backbone of the solver
tests. naive_pi_rooted likewise scans sizes with raw stars-and-bars
enumeration and double-checks two sizes past the stopping point.
reference_solve_lp is the earlier Fraction tableau simplex, taking the
same largest-improvement pivots in rational arithmetic, whose results
the integer-pivot solve_lp must reproduce exactly; reference_dual_problem
is the earlier weak-duality check in plain Fraction sums, whose verdict
the integer re-check lp._dual_problem must match; and
reference_unsolvable_levels the earlier down-set builder, which asks
the memoized solver about every candidate; the one-step recurrence of
pebbling_number must reproduce its levels exactly. builder_levels reads
those levels off the builder, since the graph keeps none of them, and
maximal_elements picks out the maximal members of a full down-set,
which the maximal representatives the graph keeps must expand to.
reference_witness is
the earlier recursive witness search behind the path rule, which
reference_path_witness writes out and which finishes it at every
stack, whose moves the witnesses read off Solver.decide must equal,
and reference_decide the earlier tuple-keyed Solver.decide, whose
verdicts, node counts, memo hits and memo size the packed-key search
must reproduce. Both prune with reference_floor, the solver's floor
written out from its definition in Fractions, which borrows nothing
from the solver; reference_potential writes out the distance potential
in Fractions for the tests that read it. twin_transpositions
finds the interchangeable vertices by applying every root-fixing
transposition to the edge set, root_fixing_automorphisms asks networkx
for the graph's root-fixing automorphism group, and symmetry_orbit
expands a representative into its orbit (block by block for twins, over
that group otherwise), so that a reduced down-set can be checked
against a full one; greatest picks an orbit's representative, its
greatest member in the builder's vertex order. reference_tree_check
reads the tree condition with networkx (is_tree on the induced support,
then halving along BFS parents, on the Fraction weights), which
check_tree_strategy must match, bool and refusal message alike.
chung_tree_pi is Chung's closed form for the rooted pebbling number of
a tree, from its maximum path partition.
"""

import weakref
from collections import deque
from fractions import Fraction
from itertools import combinations, product

import pytest

import pebbling as pb
from pebbling.graphs import GROUP_SIZE_CAP, distances_from, twin_classes
from pebbling.lp import OPTIMAL, UNBOUNDED, LpSolution
from pebbling.pebbling_number import _layout, _levels, _symmetry_mode

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def naive_solvable(g, counts, t=1):
    """Reference decision: exhaustive BFS over all move sequences."""
    start = tuple(counts)
    seen = set()
    queue = deque([start])
    while queue:
        p = queue.popleft()
        if p[g.root] >= t:
            return True
        if p in seen:
            continue
        seen.add(p)
        for u in range(g.vertex_count):
            if p[u] >= 2:
                for v in g.neighbors[u]:
                    child = list(p)
                    child[u] -= 2
                    child[v] += 1
                    queue.append(tuple(child))
    return False


def all_counts(n, size):
    """All length-n tuples of nonnegative ints summing to size (stars and bars)."""
    out = []
    for bars in combinations(range(size + n - 1), n - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(size + n - 2 - prev)
        out.append(tuple(counts))
    return out


def root_zero_counts(g, size):
    free = [v for v in range(g.vertex_count) if v != g.root]
    for c in all_counts(len(free), size):
        arr = [0] * g.vertex_count
        for v, x in zip(free, c):
            arr[v] = x
        yield tuple(arr)


def naive_pi_rooted(g, extra=2, size_cap=40):
    """Reference rooted pebbling number for small graphs.

    Finds the first size with zero unsolvable root-free configurations
    and verifies ``extra`` further sizes are also clean, exercising the
    stop rule independently.
    """
    size = 1
    last_bad = 0
    while size <= size_cap:
        bad = [c for c in root_zero_counts(g, size) if not naive_solvable(g, c)]
        if not bad:
            for s in range(size + 1, size + 1 + extra):
                assert not any(
                    not naive_solvable(g, c) for c in root_zero_counts(g, s)
                ), f"stop rule violated at size {s}"
            return size
        last_bad = size
        size += 1
    raise AssertionError(f"no clean size found up to {size_cap} (last unsolvable at {last_bad})")


def naive_unsolvable_levels(g):
    """Reference down-set: the root-free configurations naive_solvable
    rejects, one set per size, up to and including the first empty size."""
    levels = []
    while True:
        level = {c for c in root_zero_counts(g, len(levels)) if not naive_solvable(g, c)}
        levels.append(level)
        if not level:
            return levels


# the copies stripped() made, which symmetry_orbit reduces by twins only
_STRIPPED = weakref.WeakSet()


def stripped(g):
    """A copy of g whose down-set is reduced by its twins only, or not at
    all: its symmetry regime is seeded with its twin blocks, else none,
    so no automorphism group is looked for. A scan of a copy with no
    twins is a scan with no orbit reduction, as from
    naive_unsolvable_levels or reference_unsolvable_levels(..., full=True)."""
    h = pb.build_graph(g.vertex_count, g.edges, g.root, labels=g.labels)
    blocks = twin_classes(h)
    h._cache["symmetry_mode"] = ("blocks", blocks) if blocks else ("none", None)
    _STRIPPED.add(h)
    return h


def reference_unsolvable_levels(g, solver, full=False):
    """The down-set built by deciding every candidate with ``solver``:
    each level is the level below plus one pebble (p(v) < 2^d(v,r)),
    replaced by its orbit's representative (greatest over symmetry_orbit,
    or itself alone when ``full``) and kept where the solver finds it
    unsolvable. Nothing is cached."""
    orbit_of = (lambda counts: (counts,)) if full else symmetry_orbit(g)
    representative = greatest(g)
    dist = distances_from(g, g.root)
    top = [(v, (1 << dist[v]) - 1) for v in range(g.vertex_count) if v != g.root]
    level = {(0,) * g.vertex_count}
    levels = []
    while level:
        levels.append(level)
        tried: set[tuple[int, ...]] = set()
        nxt = set()
        for p in level:
            solver.check_deadline()
            for v, cap in top:
                if p[v] < cap:
                    q = list(p)
                    q[v] += 1
                    q = representative(orbit_of(tuple(q)))
                    if q not in tried:
                        tried.add(q)
                        if not solver.decide(q):
                            nxt.add(q)
        level = nxt
    return tuple(levels)


def builder_levels(g, solver=None):
    """The levels pebbling_number._levels yields, each a set of counts
    tuples decoded from its packed keys, built with ``solver`` (a new one
    by default). Nothing is cached, the witness is not re-checked, and
    the maximal representatives the builder hands over are dropped."""
    unpack = _layout(g, _symmetry_mode(g)[0])[2]
    return tuple(set(map(unpack, level)) for level in _levels(g, solver or pb.Solver(g), []))


def build_nodes(g):
    """The search nodes of g's down-set build alone, one per candidate
    decided, counted on a solver of its own: no witness re-check."""
    solver = pb.Solver(g)
    builder_levels(g, solver)
    return solver.stats.nodes


def maximal_elements(levels):
    """The members p of a full down-set (one set per size, from size 0)
    with no p + e_v in the next size."""
    out = set()
    for level, nxt in zip(levels, [*levels[1:], set()]):
        for p in level:
            if not any(p[:v] + (p[v] + 1,) + p[v + 1 :] in nxt for v in range(len(p))):
                out.add(p)
    return out


def reference_potential(g, counts):
    """The distance potential sum p(v) 2^-d(v,r) of ``counts``, in
    Fractions."""
    dist = distances_from(g, g.root)
    return sum((Fraction(c, 2 ** dist[v]) for v, c in enumerate(counts)), start=Fraction(0))


def reference_floor(g, counts, t=1):
    """Whether ``counts`` is below the solver's floor, so unsolvable, from
    the definitions in Fractions. For t = 1: no pebble on the root, and
    Phi_a = sum p(v) 2^-d'(v,a) below 2 for every root neighbour a, d'
    the distances in G - r (a breadth-first walk that never enters r),
    unreachable vertices weighing nothing. For t >= 2: the distance
    potential sum p(v) 2^-d(v,r) below t."""
    if t > 1:
        return reference_potential(g, counts) < t
    for a in g.neighbors[g.root]:
        far = {a: 0}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            for y in g.neighbors[x]:
                if y != g.root and y not in far:
                    far[y] = far[x] + 1
                    queue.append(y)
        if sum(Fraction(counts[v], 2 ** d) for v, d in far.items()) >= 2:
            return False
    return counts[g.root] == 0


def reference_decide(solver, counts):
    """The earlier Solver.decide, but for ``self`` and its floor, which
    is reference_floor: each child a new counts tuple, the memo keyed on
    the tuples themselves. Run on a solver of its own, which only it
    searches."""
    solver.count_node()
    stats = solver.stats
    thr = solver.stack_threshold
    if any(c >= thr[v] for v, c in enumerate(counts)):
        return True
    if reference_floor(solver.graph, counts, solver.target):
        return False
    cached = solver.memo.get(counts)
    if cached is not None:
        stats.memo_hits += 1
        return cached
    result = False
    for u, v in solver._moves:
        if counts[u] >= 2:
            child = list(counts)
            child[u] -= 2
            child[v] += 1
            if reference_decide(solver, tuple(child)):
                result = True
                break
    solver.memo[counts] = result
    return result


def reference_path_witness(g, counts, t=1):
    """The path rule, written out on its own: no moves when the root
    holds t; else each vertex's need, the moves to its lowest-id
    neighbour one nearer the root that carry t pebbles there along that
    path, nearest vertices first; the first vertex holding twice its
    (positive) need gives the moves, farthest first. None when no vertex
    does."""
    if counts[g.root] >= t:
        return []
    dist = distances_from(g, g.root)
    up = {v: min(u for u in g.neighbors[v] if dist[u] < dist[v]) for v in range(g.vertex_count) if v != g.root}
    need = {g.root: 0}
    for v in sorted(up, key=lambda v: dist[v]):
        u = up[v]
        need[v] = max(0, t - counts[u]) if u == g.root else max(0, 2 * need[u] - counts[u])
    for v in range(g.vertex_count):
        if 0 < 2 * need[v] <= counts[v]:
            moves = []
            while v != g.root:
                moves += [(v, up[v])] * need[v]
                v = up[v]
            return moves
    return None


def reference_witness(g, counts, t=1):
    """The earlier witness search: a second recursive copy of
    Solver.decide that carries the moves, with its own memo of
    unsolvable (False) entries only, behind the query-level path rule
    (reference_path_witness), which also finishes from the first
    configuration the search reaches that holds a stack (t on the root
    among them). Solver witnesses must equal its result exactly."""
    solver = pb.Solver(g, t)
    memo = {}
    path = reference_path_witness(g, counts, t)
    if path is not None:
        return path

    def witness(counts):
        solver.count_node()
        stats = solver.stats
        thr = solver.stack_threshold
        if any(c >= thr[v] for v, c in enumerate(counts)):
            return reference_path_witness(g, counts, t)
        if reference_floor(g, counts, t):
            return None
        if memo.get(counts) is False:
            stats.memo_hits += 1
            return None
        for u, v in solver._moves:
            if counts[u] >= 2:
                child = list(counts)
                child[u] -= 2
                child[v] += 1
                tail = witness(tuple(child))
                if tail is not None:
                    tail.insert(0, (u, v))
                    return tail
        memo[counts] = False
        return None

    return witness(tuple(counts))


def root_fixing_automorphisms(g):
    """Every automorphism of g that fixes the root, as permutation
    tuples, from networkx's GraphMatcher with the root pinned by a node
    attribute. The nodes go in breadth-first from the root, an order in
    which the matcher stays fast on a relabeled cube."""
    from networkx import Graph, bfs_tree
    from networkx.algorithms.isomorphism import GraphMatcher

    plain = Graph(g.edges)
    plain.add_nodes_from(range(g.vertex_count))
    h = Graph()
    h.add_nodes_from((v, {"root": v == g.root}) for v in bfs_tree(plain, g.root))
    h.add_edges_from(g.edges)
    matcher = GraphMatcher(h, h, node_match=lambda a, b: a["root"] == b["root"])
    return {tuple(m[v] for v in range(g.vertex_count)) for m in matcher.isomorphisms_iter()}


def reference_tree_check(g, w):
    """The tree condition read with networkx: the halving verdict when the
    positive support plus the root induces a tree, else the message of the
    NotATreeError that check_tree_strategy must raise (no edge count of
    a tree, or a tree's count but not connected)."""
    from networkx import Graph, bfs_predecessors, is_tree

    plain = Graph(g.edges)
    plain.add_nodes_from(range(g.vertex_count))
    h = plain.subgraph([v for v in range(g.vertex_count) if v == g.root or w.weights[v] > 0])
    if not is_tree(h):
        if h.number_of_edges() != h.number_of_nodes() - 1:
            return "support plus root does not induce a tree"
        return "support plus root is not connected to the root"
    return all(up == g.root or w.weights[up] >= 2 * w.weights[v] for v, up in bfs_predecessors(h, g.root))


def symmetry_closure(g, gens=None):
    """Every permutation generated by ``gens``, by BFS; by default g's
    root-fixing automorphism group (root_fixing_automorphisms)."""
    if gens is None:
        return root_fixing_automorphisms(g)
    identity = tuple(range(g.vertex_count))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in gens:
                q = tuple(gen[p[v]] for v in identity)
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


def orbit(group, counts):
    """All images of a counts tuple under a permutation group."""
    images = set()
    for perm in group:
        moved = [0] * len(counts)
        for v, c in enumerate(counts):
            moved[perm[v]] = c
        images.add(tuple(moved))
    return images


def twin_transpositions(g):
    """Every transposition of two non-root vertices that maps the edge
    set onto itself, found by applying it to each edge."""
    edges = set(g.edges)
    out = []
    for a, b in combinations([v for v in range(g.vertex_count) if v != g.root], 2):
        perm = list(range(g.vertex_count))
        perm[a], perm[b] = b, a
        if {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges} == edges:
            out.append(tuple(perm))
    return out


def twin_blocks(g):
    """The classes of vertices that twin_transpositions links, merged
    pair by pair, each sorted, in order of their first vertex."""
    blocks = []
    for perm in twin_transpositions(g):
        pair = {v for v, x in enumerate(perm) if x != v}
        touching = [block for block in blocks if block & pair]
        blocks = [block for block in blocks if not block & pair] + [pair.union(*touching)]
    return sorted(tuple(sorted(block)) for block in blocks)


def arrangements(values):
    """The distinct orderings of a multiset, from the ascending one,
    one next-permutation step each."""
    a = sorted(values)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def block_orbit(blocks, counts):
    """All images of a counts tuple when the vertices of each block are
    permuted freely: one image per choice of each block's distinct
    arrangement of its counts, so one step per orbit member rather than
    one per group element."""
    images = set()
    for choice in product(*(arrangements([counts[v] for v in block]) for block in blocks)):
        moved = list(counts)
        for block, values in zip(blocks, choice):
            for v, x in zip(block, values):
                moved[v] = x
        images.add(tuple(moved))
    return images


def symmetry_orbit(g):
    """The orbit map of the symmetry the down-set is reduced by, derived
    without pebbling_number: the arrangements within the blocks of
    twin_transpositions when g has twins; else, unless g is a stripped
    copy, the orbits of root_fixing_automorphisms when there are at
    most GROUP_SIZE_CAP; else each configuration alone."""
    blocks = twin_blocks(g)
    if not blocks and g not in _STRIPPED:
        group = root_fixing_automorphisms(g)
        if len(group) <= GROUP_SIZE_CAP:
            return lambda counts: orbit(group, counts)
    return lambda counts: block_orbit(blocks, counts)


def builder_order(g):
    """The down-set builder's vertex order, derived without
    pebbling_number: nearest the root first, ties to the smaller id."""
    dist = distances_from(g, g.root)
    return sorted(range(g.vertex_count), key=lambda v: (dist[v], v))


def greatest(g):
    """The representative of an orbit (a collection of counts tuples):
    its greatest member in builder_order(g)."""
    order = builder_order(g)
    return lambda configurations: max(configurations, key=lambda c: [c[v] for v in order])


def chung_tree_pi(g):
    """pi(T, r) of a tree T rooted at r by Chung's formula (Pebbling in
    hypercubes, SIAM J. Discrete Math. 2, 1989): the sum of 2^a_i - q + 1
    over the lengths a_1, ..., a_q of a maximum path partition. That
    partition splits the edges into paths, each running down from a
    vertex to a leaf: a path entering a vertex goes on into its tallest
    subtree, and every other edge down from it, as every edge out of r,
    starts a path of its own. Reads the edges alone, with its own
    breadth-first walk from r."""
    parent, order = {g.root: None}, [g.root]
    for x in order:
        for y in g.neighbors[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    assert len(order) == g.vertex_count == len(g.edges) + 1, "not a tree"
    # the edges on the longest way down from each vertex, children first
    height = dict.fromkeys(order, 0)
    for v in reversed(order[1:]):
        height[parent[v]] = max(height[parent[v]], height[v] + 1)
    lengths = []
    for v in order:
        children = sorted((c for c in g.neighbors[v] if parent[c] == v), key=height.get)
        # a path coming down into v goes on into its tallest child
        starts = children if v == g.root else children[:-1]
        lengths += [height[c] + 1 for c in starts]
    return sum(2**a for a in lengths) - len(lengths) + 1


def random_connected_graph(rng, n_min=2, n_max=8, max_extra=3):
    n = rng.randint(n_min, n_max)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, max_extra)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return pb.build_graph(n, sorted(edges), root=rng.randrange(n))


def random_tree(rng, n_min=2, n_max=7):
    n = rng.randint(n_min, n_max)
    edges = sorted((rng.randrange(v), v) for v in range(1, n))
    return pb.build_graph(n, edges, root=rng.randrange(n))


def random_counts(rng, g, max_total=10):
    total = rng.randint(0, max_total)
    arr = [0] * g.vertex_count
    for _ in range(total):
        arr[rng.randrange(g.vertex_count)] += 1
    return tuple(arr)


# ---------------------------------------------------------------------------
# reference exact simplex
# ---------------------------------------------------------------------------


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            factor = r[col]
            tab[i] = [a - factor * b for a, b in zip(r, tab[row])]
    basis[row] = col


def _run_simplex(tab, basis, cost, n_cols):
    """Largest-improvement pivots on [rows | rhs] with a separate reduced-cost row.

    The column of largest gain cost[j] * (its least ratio) enters, ties
    to the least j; the least ratio leaves, ties to the smaller basis
    index. A positive cost over a column with no positive entry is
    unbounded. cost is mutated in place; entry cost[-1] accumulates
    -objective. Returns "optimal" or "unbounded".
    """
    while True:
        enter = -1
        for j in range(n_cols):
            if cost[j] <= 0:
                continue
            keys = [(row[-1] / row[j], basis[i], i) for i, row in enumerate(tab) if row[j] > 0]
            if not keys:
                return UNBOUNDED
            ratio, _, row = min(keys)
            if enter < 0 or cost[j] * ratio > gain:
                enter, leave, gain = j, row, cost[j] * ratio
        if enter < 0:
            return OPTIMAL
        _pivot(tab, basis, leave, enter)
        factor = cost[enter]
        cost[:] = [a - factor * b for a, b in zip(cost, tab[leave])]


def reference_solve_lp(lp):
    """The earlier Fraction tableau simplex, kept as a reference for solve_lp.

    Same pivots from the slack basis (the largest gain enters, ties to
    the least column), but every entry a Fraction and the dual from a
    separate elimination on the optimal basis.
    """
    m, n = len(lp.rows), len(lp.objective)
    zero = Fraction(0)

    # columns: n structural, m slacks, rhs last; every basic variable is
    # a slack, of cost 0, so the cost row needs no correction
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = list(lp.rows[i]) + [zero] * m + [lp.rhs[i]]
        row[n + i] = Fraction(1)
        tab.append(row)
    basis = list(range(n, n + m))
    cost = list(lp.objective) + [zero] * (m + 1)
    if _run_simplex(tab, basis, cost, n + m) == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, None)

    point = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tab[i][-1]
    return LpSolution(OPTIMAL, -cost[-1], tuple(point), _dual_values(lp, basis))


def _dual_values(lp, basis):
    """Solve y . B = c_B exactly for the optimal basis."""
    n = len(lp.objective)
    m = len(lp.rows)
    zero = Fraction(0)
    cols = []
    cb = []
    for b in basis:
        if b < n:
            cols.append([row[b] for row in lp.rows])
            cb.append(lp.objective[b])
        else:
            col = [zero] * m
            col[b - n] = Fraction(1)
            cols.append(col)
            cb.append(zero)
    # equations: sum_i y_i * cols[j][i] = cb[j]
    aug = [[cols[j][i] for i in range(m)] + [cb[j]] for j in range(m)]
    for c in range(m):
        pivot_row = next(r for r in range(c, m) if aug[r][c] != 0)
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(m):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return tuple(aug[i][-1] for i in range(m))


def reference_dual_problem(lp, sol):
    """The earlier Fraction weak-duality check, kept as a reference for lp._dual_problem.

    Same checks in the same order: the dual's length, y >= 0, yA >= c
    column by column and y.b = optimum, every sum a plain Fraction sum.
    """
    y = sol.dual
    if y is None or len(y) != len(lp.rows):
        return "the optimal solution carries no dual of the right length"
    if any(v < 0 for v in y):
        return "negative dual value"
    for j, c in enumerate(lp.objective):
        if sum(v * row[j] for v, row in zip(y, lp.rows)) < c:
            return f"dual violates column {j}"
    if sum(v * b for v, b in zip(y, lp.rhs)) != sol.optimum:
        return "dual objective differs from the optimum"
    return None


@pytest.fixture
def p2():
    return pb.path_graph(1)


@pytest.fixture
def p3():
    return pb.path_graph(2)


@pytest.fixture
def c4():
    return pb.cycle_graph(4)


@pytest.fixture
def c5():
    return pb.cycle_graph(5)


@pytest.fixture
def q3():
    return pb.hypercube(3)


@pytest.fixture
def fig2():
    return pb.generate("fig2")


@pytest.fixture
def lemma5_graph():
    return pb.generate("lemma5")
