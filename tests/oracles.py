"""Independent reference implementations used to validate the package.

Everything here is deliberately written from first principles (plain
Python, breadth-first search, literal recursions) and stays separate from
the library's own arithmetic, so that agreement between the two routes is
evidence rather than tautology.
"""
from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping

import numpy as np

from sierham.graphs import (
    Vertex, build_hamming, build_sierpinski, check_vertex, code_to_vertex, is_sierpinski_edge,
    vertex_to_code,
)
from sierham.maps import LinearMap, TwistFamily, phi_forward


def as_tuples(rows: np.ndarray) -> list[Vertex]:
    """The rows of a (k, n) digit array as tuples of Python ints."""
    assert isinstance(rows, np.ndarray) and rows.ndim == 2
    return [tuple(r) for r in rows.tolist()]


def all_vertices(n: int, m: int) -> list[Vertex]:
    return [code_to_vertex(code, n, m) for code in range(m**n)]


def twist_matrix_closed_form(tw: TwistFamily) -> tuple[tuple[int, ...], ...]:
    """Rows of a twist family's matrix, entry by entry: s_i * 2^(i-1-j) mod m
    below the diagonal, s_i on it, 0 above (0-based i, j; s = tw.scales())."""
    n, m, scales = len(tw.multipliers), tw.m, tw.scales()
    rows = []
    for i in range(n):
        row = [scales[i] * pow(2, i - 1 - j, m) % m for j in range(i)]
        rows.append(tuple(row + [scales[i] % m] + [0] * (n - 1 - i)))
    return tuple(rows)


def epsilon_two_pass(v, tw: TwistFamily) -> Vertex:
    """A twist family applied as phi followed by a second pass of per-coordinate scales."""
    return tuple(s * d % tw.m for s, d in zip(tw.scales(), phi_forward(v, tw.m)))


def block_edge_density(n: int, m: int):
    """Share of K_m^n's edges that join two vertices of one clique block of S(n,m).

    Counted on the built graphs: a block is the m vertices that share their
    first n - 1 digits, so an edge lies in one when its codes agree after
    integer division by m.
    """
    edges = build_sierpinski(n, m).edges
    inside = int(np.count_nonzero(edges[:, 0] // m == edges[:, 1] // m))
    return Fraction(inside, build_hamming(n, m).num_edges)


def adjacency(g) -> list[list[int]]:
    """Neighbour lists of a Graph, indexed by vertex code, in edge order."""
    adj: list[list[int]] = [[] for _ in range(g.num_vertices)]
    for u, v in g.edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def edge_set(g) -> set[tuple[int, int]]:
    """The (u, v) code pairs of a Graph's edges, u < v."""
    return {(u, v) for u, v in g.edges.tolist()}


def bfs_distances(adj: list[list[int]], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def geodesic_counts(adj: list[list[int]], src: int) -> list[int]:
    """Number of shortest paths from every vertex to src."""
    dist = bfs_distances(adj, src)
    order = sorted(range(len(adj)), key=lambda u: dist[u])
    count = [0] * len(adj)
    count[src] = 1
    for u in order:
        if u == src:
            continue
        count[u] = sum(count[w] for w in adj[u] if dist[w] == dist[u] - 1)
    return count


def recursive_sierpinski_edges(n: int, m: int) -> set[tuple[int, int]]:
    """Edge codes of S(n,m) by the copies-plus-connectors recursion."""
    if n == 1:
        return {(i, j) for i in range(m) for j in range(i + 1, m)}
    prev = recursive_sierpinski_edges(n - 1, m)
    block = m ** (n - 1)
    edges = set()
    for i in range(m):
        for u, v in prev:
            edges.add((i * block + u, i * block + v))
    rep = (block - 1) // (m - 1)  # code of an all-ones suffix of length n-1
    for i in range(m):
        for j in range(i + 1, m):
            u = i * block + j * rep
            v = j * block + i * rep
            edges.add((min(u, v), max(u, v)))
    return edges


def pairwise_sierpinski_edges(n: int, m: int) -> set[tuple[int, int]]:
    """Edge codes of S(n,m) by testing the digit rule on every vertex pair."""
    vs = all_vertices(n, m)
    edges = set()
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            if is_sierpinski_edge(vs[a], vs[b], m):
                edges.add((a, b))
    return edges


def reflected_gray(n: int) -> list[Vertex]:
    """The classic reflect-and-prefix Gray construction."""
    seq: list[tuple[int, ...]] = [(0,), (1,)]
    for _ in range(n - 1):
        seq = [(0,) + w for w in seq] + [(1,) + w for w in reversed(seq)]
    return seq


def legal_move_edges(n: int, m: int, legal) -> set[tuple[int, int]]:
    """All unordered position pairs joined by one legal move.

    `legal` is a predicate over (position, position); candidates are
    generated by changing a single digit, which every move does.
    """
    from sierham.graphs import vertex_to_code

    edges = set()
    for a in all_vertices(n, m):
        ca = vertex_to_code(a, m)
        for d in range(n):
            for peg in range(m):
                if peg == a[d]:
                    continue
                b = a[:d] + (peg,) + a[d + 1 :]
                cb = vertex_to_code(b, m)
                if ca < cb and legal(a, b):
                    edges.add((ca, cb))
    return edges


def _level_edges_loop(n: int, m: int, twisted: bool) -> list[tuple[int, int]]:
    """Loop form of the level kernel: crossed tails, or the shared tail (i+j) mod m."""
    out = []
    for h in range(1, n + 1):
        span = m ** (n - h)  # weight of digit h
        rep = (span - 1) // (m - 1)  # code of a length-(n-h) run of 1s
        for p in range(m ** (h - 1)):
            base = p * span * m
            for i in range(m - 1):
                for j in range(i + 1, m):
                    ti, tj = ((i + j) % m,) * 2 if twisted else (j, i)
                    out.append((base + i * span + ti * rep, base + j * span + tj * rep))
    return out


def sierpinski_edges_loop(n: int, m: int) -> list[tuple[int, int]]:
    return _level_edges_loop(n, m, twisted=False)


def single_twist_edges_loop(n: int, m: int) -> list[tuple[int, int]]:
    return _level_edges_loop(n, m, twisted=True)


def hamming_edges_loop(n: int, m: int) -> list[tuple[int, int]]:
    out = []
    for pos in range(n):  # 0 = least significant digit
        w = m**pos
        for a in range(m ** (n - pos - 1)):
            for b in range(w):
                base = a * w * m + b
                for i in range(m - 1):
                    for j in range(i + 1, m):
                        out.append((base + i * w, base + j * w))
    return out


def digit_diff_counts_loop(a, b, n: int, m: int) -> list[int]:
    out = []
    for x, y in zip(a, b):
        x, y = int(x), int(y)
        d = 0
        for _ in range(n):
            d += x % m != y % m
            x //= m
            y //= m
        out.append(d)
    return out


def canonical_rows(rows):
    """Rows ordered (min, max), deduplicated and sorted by a row-wise np.unique."""
    rows = np.asarray(rows, np.int64).reshape(-1, 2)
    lo = np.minimum(rows[:, 0], rows[:, 1])
    hi = np.maximum(rows[:, 0], rows[:, 1])
    return np.unique(np.stack((lo, hi), axis=1), axis=0)


def refined_colors(adj: list[list[int]], colors: list[int]) -> list[int]:
    """Colour refinement: split each colour class by the multiset of
    neighbour colours until no class splits. Colours are renumbered from
    the sorted signatures, so vertices of two graphs refined together get
    comparable colours, and isomorphic vertices always end equal."""
    while True:
        sig = [(colors[u], tuple(sorted(colors[w] for w in adj[u]))) for u in range(len(adj))]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if len(palette) == len(set(colors)):
            return new
        colors = new


def backtracking_isomorphism(adj_a: list[list[int]], adj_b: list[list[int]]) -> list[int] | None:
    """Individualization-refinement search for an isomorphism from A onto B.

    Colours start from degrees and are refined over the disjoint union of A
    and B; a colour class whose sizes differ between the two rules out
    every mapping below it. Otherwise the search fixes one vertex of the
    smallest class of A to each same-coloured vertex of B in turn, gives
    the pair a fresh colour and refines again, until every class is a
    single pair. Returns the mapping as a list, or None. Exponential in the
    worst case; keep it to graphs of a few dozen vertices.
    """
    na = len(adj_a)
    if na != len(adj_b):
        return None
    adj = adj_a + [[w + na for w in x] for x in adj_b]
    sets_b = [set(x) for x in adj_b]

    def search(colors: list[int]) -> list[int] | None:
        colors = refined_colors(adj, colors)
        col_a, col_b = colors[:na], colors[na:]
        if sorted(col_a) != sorted(col_b):
            return None
        sizes = {c: col_a.count(c) for c in set(col_a)}
        if max(sizes.values()) == 1:
            where = {c: v for v, c in enumerate(col_b)}
            mapping = [where[c] for c in col_a]
            ok = all(mapping[w] in sets_b[mapping[u]] for u in range(na) for w in adj_a[u])
            return mapping if ok else None
        c = min((c for c in sizes if sizes[c] > 1), key=sizes.__getitem__)
        u = col_a.index(c)
        fresh = max(colors) + 1
        for v in (v for v in range(na) if col_b[v] == c):
            trial = list(colors)
            trial[u] = trial[na + v] = fresh
            found = search(trial)
            if found is not None:
                return found
        return None

    return search([len(x) for x in adj])


def double_edge_swap(edges, rng) -> np.ndarray | None:
    """Replace two disjoint edges (a, b), (c, d) by (a, d), (c, b).

    Degrees are unchanged. Returns None when the rewired pair would repeat
    an edge or the two picked edges share an endpoint.
    """
    edges = np.array(edges, np.int64)
    s, t = rng.choice(edges.shape[0], size=2, replace=False)
    a, b, c, d = (int(x) for x in (*edges[s], *edges[t]))
    present = {frozenset(e) for e in edges.tolist()}
    if len({a, b, c, d}) < 4 or frozenset((a, d)) in present or frozenset((c, b)) in present:
        return None
    edges[s], edges[t] = (a, d), (c, b)
    return edges


# Scalar loop forms of the whole-table maps: one scalar formula per row,
# as the library computed them before its tables went through LinearMap.image.


def binary_expansion(ell: int, n: int) -> Vertex:
    return tuple((ell >> (n - 1 - i)) & 1 for i in range(n))


def classic_positions_loop(n: int, m: int) -> list[Vertex]:
    from sierham.maps import tau_forward

    return [tau_forward(binary_expansion(ell, n), m) for ell in range(2**n)]


def diplomats_rows_loop(n: int) -> list[tuple[Vertex, Vertex]]:
    from sierham.maps import tau_forward

    bits = [binary_expansion(ell, n) for ell in range(2**n)]
    return [(s, tau_forward(s, 5)) for s in bits]


def gray_sequence_loop(n: int) -> list[Vertex]:
    from sierham.maps import phi_forward

    return [phi_forward(binary_expansion(ell, n), 2) for ell in range(2**n)]


def geodesic_walk(v, m: int):
    """The unique geodesic from v to 0^n in S(n,m), walked one step at a time.

    Each step either zeroes a nonzero last digit, or takes the deepest
    nonzero digit c with an all-zero tail and replaces c, 0, ..., 0 by
    0, c, ..., c. Both moves are S(n,m) edges and each lowers the distance
    by exactly one.
    """
    from sierham.hanoi import MovePath

    n = len(v)
    check_vertex(v, n, m)
    cur = tuple(v)
    positions = [cur]
    while any(cur):
        if cur[-1] != 0:
            cur = cur[:-1] + (0,)
        else:
            h = max(i for i, d in enumerate(cur) if d != 0)
            c = cur[h]
            cur = cur[:h] + (0,) + (c,) * (n - 1 - h)
        positions.append(cur)
    return MovePath("S", m, positions)


def solve_positions_loop(t, m: int) -> list[Vertex]:
    from sierham.maps import tau_forward, tau_inverse

    path = geodesic_walk(tau_inverse(t, m), m)
    return [tau_forward(p, m) for p in path.positions.tolist()]


# Per-vertex forms of the verifiers: one scalar image and one code_to_vertex
# per vertex, as the library computed its reports before they went through
# digit rows in blocks.


def reference_images(vmap, n: int, m: int) -> list[int]:
    """Image code of every vertex code, one vertex at a time.

    A LinearMap is applied as a plain matrix-vector product mod m; a
    callable or a mapping is called on each vertex, and each output checked.
    """
    if isinstance(vmap, LinearMap):
        def f(v):
            return tuple(sum(a * d for a, d in zip(row, v)) % m for row in vmap.rows)
    else:
        f = vmap.__getitem__ if isinstance(vmap, Mapping) else vmap
    img = []
    for code in range(m**n):
        w = f(code_to_vertex(code, n, m))
        check_vertex(w, n, m)
        img.append(vertex_to_code(w, m))
    return img


def _hamming(a: int, b: int, n: int, m: int) -> int:
    return sum(x != y for x, y in zip(code_to_vertex(a, n, m), code_to_vertex(b, n, m)))


def reference_verify_embedding(vmap, n: int, m: int) -> dict:
    """verify_embedding's report, from recursive_sierpinski_edges and per-vertex images."""
    img = reference_images(vmap, n, m)
    edges = sorted(recursive_sierpinski_edges(n, m))
    counts = Counter(img)
    violations = [
        {"kind": "collision", "image": code_to_vertex(val, n, m), "count": counts[val]}
        for val in sorted(val for val, k in counts.items() if k > 1)[:10]
    ]
    for u, v in edges:
        d = _hamming(img[u], img[v], n, m)
        if d != 1:
            violations.append(
                {
                    "kind": "distance",
                    "edge": (code_to_vertex(u, n, m), code_to_vertex(v, n, m)),
                    "images": (code_to_vertex(img[u], n, m), code_to_vertex(img[v], n, m)),
                    "distance": d,
                }
            )
    is_bijection = len(counts) == m**n
    distance_one = not any(item["kind"] == "distance" for item in violations)
    image_edges = {(min(img[u], img[v]), max(img[u], img[v])) for u, v in edges}
    count_preserved = len(image_edges) == len(edges)
    return {
        "is_bijection": is_bijection,
        "all_edges_distance_one": distance_one,
        "edge_count_preserved": count_preserved,
        "verdict": is_bijection and distance_one and count_preserved,
        "violations": violations,
    }


def reference_layout_metrics(vmap, n: int, m: int) -> dict:
    img = reference_images(vmap, n, m)
    dists = [_hamming(img[u], img[v], n, m) for u, v in recursive_sierpinski_edges(n, m)]
    return {"wirelength": sum(dists), "bandwidth": max(dists)}


def lower_triangular_matrices(n: int, m: int) -> np.ndarray:
    """Every n x n lower-triangular matrix mod m with units on the diagonal, as (K, n, n).

    K = phi(m)^n * m^(n(n-1)/2): the diagonals in the outer loop, then the
    entries below the diagonal, row by row, in lexicographic order.
    """
    units = [c for c in range(1, m) if np.gcd(c, m) == 1]
    below = np.tril_indices(n, -1)
    out = []
    for diagonal in product(units, repeat=n):
        for entries in product(range(m), repeat=below[0].size):
            a = np.diag(diagonal)
            a[below] = entries
            out.append(a)
    return np.array(out, np.int64).reshape(-1, n, n)


def batch_layouts(mats: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each matrix A of a (K, n, n) stack: whether x -> A x mod m embeds S(n,m),
    and the wirelength and bandwidth of that layout.

    Every vertex's image is computed for every matrix at once; the edges come
    from recursive_sierpinski_edges. Embeds means a bijection that puts every
    edge at Hamming distance 1 (a bijection keeps the edge count).
    """
    digits = np.array(all_vertices(n, m), np.int64)  # (V, n) in code order
    img = np.einsum("kij,vj->kvi", mats, digits) % m  # (K, V, n)
    codes = img @ (m ** np.arange(n - 1, -1, -1))
    bijective = (np.sort(codes, axis=1) == np.arange(m**n)).all(axis=1)
    u, v = np.array(sorted(recursive_sierpinski_edges(n, m))).T
    dist = (img[:, u] != img[:, v]).sum(axis=2)  # (K, E)
    return bijective & (dist == 1).all(axis=1), dist.sum(axis=1), dist.max(axis=1)


def reference_coordinatization_gates(g) -> dict:
    """The distance, edge-count and degree gates of verify_coordinatization.

    Returns their three booleans, their violation items in report order
    (at most 10 per kind) and the count of all of them, per edge and per
    vertex; the isomorphism gate is left to the certificate's own tests.
    """
    n, m = g.n, g.m
    violations = []
    total = 0
    for u, v in g.edges.tolist():
        d = _hamming(u, v, n, m)
        if d != 1:
            total += 1
            if total <= 10:
                edge = (code_to_vertex(u, n, m), code_to_vertex(v, n, m))
                violations.append({"kind": "distance", "edge": edge, "distance": d})
    distance_one = total == 0
    expected = (m ** (n + 1) - m) // 2
    count_matches = g.num_edges == expected
    if not count_matches:
        violations.append({"kind": "edge_count", "found": g.num_edges, "expected": expected})
        total += 1
    deg = [0] * m**n
    for u, v in g.edges.tolist():
        deg[u] += 1
        deg[v] += 1
    degrees_match = sorted(deg) == sorted([m - 1] * m + [m] * (m**n - m))
    if not degrees_match:
        off = [code for code, d in enumerate(deg) if d not in (m - 1, m)]
        for c in off[:10]:
            vertex = code_to_vertex(c, n, m)
            violations.append({"kind": "degree", "vertex": vertex, "degree": deg[c], "allowed": [m - 1, m]})
        total += len(off)
    return {
        "all_edges_distance_one": distance_one,
        "edge_count_matches": count_matches,
        "degree_sequence_matches": degrees_match,
        "violations": violations,
        "violations_total": total,
    }


# The constant-corner question for even m and n = 2 by exhaustive search,
# as the library answered it before its closed form: every choice of one
# axis line per corner, and a branch-and-bound over the line pairs for each
# choice that partitions the vertex set. Exponential in m; m <= 6 is quick.


def _max_exterior_edges(m: int, lines: list[set[tuple[int, int]]]) -> int:
    """Most block-crossing edges a corner-per-line decomposition can host.

    Every pair of lines may contribute at most one Hamming-distance-1 edge,
    endpoints must avoid the corners, and no vertex serves twice.
    """
    pairs = list(combinations(range(m), 2))
    candidates: list[list[tuple[tuple[int, int], tuple[int, int]]]] = []
    for i, j in pairs:
        opts = []
        for p in lines[i]:
            if p == (i, i):
                continue
            for q in lines[j]:
                if q == (j, j):
                    continue
                if (p[0] == q[0]) != (p[1] == q[1]):  # Hamming distance 1
                    opts.append((p, q))
        candidates.append(opts)

    best = 0
    used: set[tuple[int, int]] = set()

    def extend(idx: int, count: int) -> None:
        nonlocal best
        if count + len(pairs) - idx <= best:
            return
        if idx == len(pairs):
            best = count
            return
        for p, q in candidates[idx]:
            if p in used or q in used:
                continue
            used.add(p)
            used.add(q)
            extend(idx + 1, count + 1)
            used.discard(p)
            used.discard(q)
        extend(idx + 1, count)  # the pair may also stay unconnected

    extend(0, 0)
    return best


def constant_corner_search_loop(m: int) -> dict:
    """constant_corner_search(m)'s report for n = 2, by search when m is even."""
    if m % 2 == 1:
        return {
            "m": m,
            "n": 2,
            "exists": True,
            "witness": "tau_forward",
            "detail": "the halved map fixes every corner and embeds S(n,m)",
        }
    required = m * (m - 1) // 2
    best = 0
    decompositions = 0
    for mask in range(2**m):
        lines = []
        for i in range(m):
            if mask >> i & 1:
                lines.append({(i, y) for y in range(m)})
            else:
                lines.append({(x, i) for x in range(m)})
        if len(set().union(*lines)) != m * m:
            continue  # chosen lines overlap, not a decomposition
        decompositions += 1
        best = max(best, _max_exterior_edges(m, lines))
    return {
        "m": m,
        "n": 2,
        "exists": best >= required,
        "witness": None,
        "max_exterior_edges": best,
        "required_exterior_edges": required,
        "decompositions_searched": decompositions,
        "detail": (
            f"max exterior edges {best} < {required} required"
            if best < required
            else f"found a decomposition carrying {best} exterior edges"
        ),
    }


def _label(v, m: int) -> str:
    """A vertex as the writers print it: digits run together for m <= 10, else spaced."""
    return ("" if m <= 10 else " ").join(str(d) for d in v)


def hanoi_table_text(ell, s, t, m: int) -> str:
    """The aligned Hanoi text table, line by line: every step and label made
    a string first, then each row formatted in one f-string."""
    s_head = f"S({s.shape[1]},{m})"
    t_head = f"T({s.shape[1]},{m})"
    steps = [str(e) for e in np.asarray(ell).tolist()]
    s_labels = [_label(v, m) for v in s.tolist()]
    t_labels = [_label(v, m) for v in t.tolist()]
    wl = max(3, max(map(len, steps), default=3))
    ws = max(len(s_head), max(map(len, s_labels), default=0))
    lines = [f"{'ell':>{wl}}  {s_head:<{ws}}  {t_head}"]
    lines.extend(f"{e:>{wl}}  {a:<{ws}}  {b}" for e, a, b in zip(steps, s_labels, t_labels))
    return "\n".join(lines) + "\n"


def graph_dot(g) -> str:
    """A Graph in DOT, line by line: one node per vertex code, labelled by its
    digits, then one line per edge."""
    lines = [f'graph "{g.kind}_{g.n}_{g.m}" {{']
    for code in range(g.num_vertices):
        lines.append(f'  v{code} [label="{_label(code_to_vertex(code, g.n, g.m), g.m)}"];')
    for u, v in g.edges.tolist():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
