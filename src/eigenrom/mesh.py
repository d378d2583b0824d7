"""Triangular meshes on the square and the L-shaped domain.

Structured generators (crisscross / right / left / mixed patterns), uniform
red refinement, conforming newest-vertex bisection, and a plain text file
format for importing externally generated (e.g. Delaunay) meshes.

Conventions
-----------
* Triangles are stored counterclockwise; local edge ``i`` is the edge
  opposite local vertex ``i``.
* ``refinement_edge[t]`` is the local edge through which triangle ``t`` is
  bisected; generators initialise it to the longest edge (ties broken by the
  lowest local index).
* Nodes of generated meshes are ordered lexicographically by ``(y, x)``.
* A ``Mesh`` stores only ``nodes``, ``triangles`` and ``refinement_edge``,
  all read-only, and is validated when it is built.  Everything derived
  from them is a property built once, on first use, and cached read-only:
  ``edge_table``, ``boundary_node`` (a boundary edge belongs to exactly one
  triangle, and a boundary node lies on a boundary edge), and the triangle
  geometry that validation, assembly and error estimation share: ``areas``
  (signed), local ``edge_lengths`` and barycentric ``gradients`` with their
  Gram matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class MeshError(ValueError):
    """Invalid mesh data (geometry, connectivity, or file contents)."""


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation of a planar domain, validated on construction.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, 2)
        Vertex coordinates.
    triangles : ndarray, shape (n_triangles, 3)
        Vertex indices, counterclockwise.
    refinement_edge : ndarray, shape (n_triangles,)
        Local edge index (0-2) used by newest-vertex bisection; None marks
        the longest edge of every triangle (ties to the lowest local index).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    refinement_edge: np.ndarray | None = None

    def __post_init__(self):
        # own read-only copies: the cached tables and geometry rely on the
        # arrays staying fixed, and the caller's arrays stay writable
        self.nodes = np.array(self.nodes, dtype=np.float64, order="C")
        self.triangles = np.array(self.triangles, dtype=np.int64, order="C")
        # the triangles must index the nodes before any geometry is read
        if self.nodes.shape[1:] != (2,) or self.triangles.shape[1:] != (3,):
            raise MeshError("nodes must have shape (n, 2) and triangles (T, 3)")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= self.n_nodes):
            raise MeshError("triangle references an invalid node index")
        if self.refinement_edge is None:
            self.refinement_edge = np.argmax(self.edge_lengths, axis=1)
        self.refinement_edge = np.array(self.refinement_edge, dtype=np.int64, order="C")
        for arr in (self.nodes, self.triangles, self.refinement_edge):
            arr.setflags(write=False)
        validate_mesh(self)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def areas(self) -> np.ndarray:
        """Signed areas of all triangles (positive for counterclockwise)."""
        p = self.nodes[self.triangles]
        u = p[:, 1] - p[:, 0]
        v = p[:, 2] - p[:, 0]
        return _read_only(0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]))

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """Lengths of the three local edges of every triangle, shape (T, 3)."""
        p = self.nodes[self.triangles]
        d = p[:, [1, 2, 0]] - p[:, [2, 0, 1]]        # local edge i opposite vertex i
        return _read_only(np.hypot(d[..., 0], d[..., 1]))

    @cached_property
    def gradients(self) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of the barycentric coordinates and their Gram matrices.

        Returns
        -------
        grads : ndarray, shape (T, 3, 2)
            ``grads[t, i]`` is the gradient of lambda_i on triangle ``t``.
        gram : ndarray, shape (T, 3, 3)
            ``gram[t, i, j] = grads[t, i] . grads[t, j]``.
        """
        p = self.nodes[self.triangles]
        grads = np.empty((self.n_triangles, 3, 2))
        for i in range(3):
            a, b = (i + 1) % 3, (i + 2) % 3
            # grad lambda_i = rot90(p_b - p_a) / (2 area)
            d = p[:, b] - p[:, a]
            grads[:, i, 0] = -d[:, 1]
            grads[:, i, 1] = d[:, 0]
        grads /= (2.0 * self.areas)[:, None, None]
        gx, gy = grads[..., 0], grads[..., 1]
        gram = np.empty((self.n_triangles, 3, 3))
        for i in range(3):
            for j in range(3):
                gram[:, i, j] = gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j]
        return _read_only(grads), _read_only(gram)

    @cached_property
    def edge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unique-edge connectivity.

        Returns
        -------
        edges : ndarray, shape (E, 2)
            Endpoint indices with ``edges[:, 0] < edges[:, 1]``,
            lexicographically sorted.
        tri_edges : ndarray, shape (T, 3)
            Edge id of each local edge (local edge ``i`` opposite vertex ``i``).
        edge_tris : ndarray, shape (E, 2)
            The one or two triangles containing each edge; -1 marks absence.
            When two are present they are in increasing triangle order.
        """
        n = self.n_nodes
        raw = self.triangles[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)
        # one int64 key per edge, lo * n + hi, sorts lexicographically by (lo, hi)
        keys, first, inverse, counts = np.unique(
            raw.min(axis=1) * n + raw.max(axis=1),
            return_index=True, return_inverse=True, return_counts=True)
        if counts.max(initial=0) > 2:
            raise MeshError("edge shared by more than two triangles")
        edges = np.column_stack([keys // n, keys % n])
        tri_edges = inverse.reshape(-1, 3)

        # the first occurrence of an edge has the lower triangle; the other
        # occurrence, if any, is the edge's second triangle
        edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
        edge_tris[:, 0] = first // 3
        second = np.flatnonzero(first[inverse] != np.arange(len(inverse)))
        edge_tris[inverse[second], 1] = second // 3
        # the two triangles of an edge traverse it in opposite directions;
        # the same direction is a fold or a repeated triangle
        forward = raw[:, 0] < raw[:, 1]
        fold = second[forward[second] == forward[first[inverse[second]]]]
        if fold.size:
            raise MeshError(f"triangles {first[inverse[fold[0]]] // 3} and "
                            f"{fold[0] // 3} overlap across a shared edge")
        return _read_only(edges), _read_only(tri_edges), _read_only(edge_tris)

    @cached_property
    def boundary_node(self) -> np.ndarray:
        """True for nodes on the domain boundary, shape (n_nodes,)."""
        edges, _, edge_tris = self.edge_table
        flags = np.zeros(self.n_nodes, dtype=bool)
        flags[edges[edge_tris[:, 1] < 0]] = True
        return _read_only(flags)


@dataclass
class MeshStats:
    n_nodes: int
    n_triangles: int
    n_boundary_nodes: int
    h_max: float
    dof_p1: int
    dof_p2: int


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _grid_mesh(m: int, coord, keep, right_diagonal) -> Mesh:
    """Triangulate the kept cells of an m x m grid of squares.

    Grid point ``(i, j)`` lies at ``(coord(i), coord(j))`` and is the
    bottom-left corner of cell ``(i, j)``; ``keep[j, i]`` selects the cells.
    ``right_diagonal[j, i]`` splits a cell by its bottom-left/top-right
    diagonal (False: the bottom-right/top-left one); None splits every cell
    into four triangles through its centre ``(coord(i + 0.5), coord(j +
    0.5))``.  Triangles follow the cells row by row; grid points of no kept
    cell are dropped and the nodes are sorted by (y, x).
    """
    j, i = np.nonzero(keep)
    ticks = coord(np.arange(m + 1))
    xg, yg = np.meshgrid(ticks, ticks)
    nodes = np.column_stack([xg.ravel(), yg.ravel()])
    bl = j * (m + 1) + i
    br, tl = bl + 1, bl + m + 1
    tr = tl + 1
    if right_diagonal is None:
        c = len(nodes) + np.arange(len(bl))
        nodes = np.vstack([nodes, np.column_stack([coord(i + 0.5), coord(j + 0.5)])])
        tris = np.column_stack([bl, br, c, br, tr, c, tr, tl, c, tl, bl, c])
    else:
        tris = np.where(right_diagonal[j, i, None],
                        np.column_stack([bl, br, tr, bl, tr, tl]),
                        np.column_stack([bl, br, tl, br, tr, tl]))
    used = np.unique(tris)
    nodes, tris = nodes[used], np.searchsorted(used, tris.reshape(-1, 3))
    order = np.lexsort((nodes[:, 0], nodes[:, 1]))
    rank = np.empty(len(nodes), dtype=np.int64)
    rank[order] = np.arange(len(nodes))
    return Mesh(nodes[order], rank[tris])


# the structured patterns of each domain's generator
PATTERNS = {"square": ("crisscross", "right", "left"),
            "lshape": ("crisscross", "mixed")}


def check_generator(domain: str, pattern: str, n: int) -> None:
    """The pattern and the subinterval count n of a domain's generator."""
    if pattern not in PATTERNS[domain]:
        raise ValueError(f"no {pattern!r} mesh on the {domain} domain; "
                         f"patterns: {', '.join(PATTERNS[domain])}")
    if n < 1:
        raise ValueError("n must be >= 1")


def generate_square(pattern: str, n: int, side: float) -> Mesh:
    """Structured triangulation of the square (0, side)^2.

    Parameters
    ----------
    pattern : {"crisscross", "right", "left"}
        Cell subdivision: four triangles through the cell centre, the
        bottom-left/top-right diagonal, or the bottom-right/top-left diagonal.
    n : int
        Number of subintervals per side.
    side : float
        Edge length of the square.
    """
    check_generator("square", pattern, n)
    if not side > 0:
        raise ValueError("side must be positive")

    diagonal = None if pattern == "crisscross" else np.full((n, n), pattern == "right")
    return _grid_mesh(n, lambda k: k / n * side, np.ones((n, n), dtype=bool), diagonal)


def generate_lshape(pattern: str, n: int) -> Mesh:
    """Structured triangulation of (-1,1)^2 minus the quadrant [0,1]x[-1,0].

    ``n`` is the number of subintervals per unit-square side.  The
    "crisscross" pattern subdivides every cell through its centre.  The
    "mixed" pattern uses one diagonal per unit square, oriented symmetrically
    about the reentrant corner: bottom-left and top-right squares use the
    bottom-left/top-right diagonal, the top-left square the other one.
    """
    check_generator("lshape", pattern, n)

    j, i = np.indices((2 * n, 2 * n))
    keep = ~((i >= n) & (j < n))                  # no cell in the removed quadrant
    right = ~((i < n) & (j >= n))                 # the top-left square flips
    return _grid_mesh(2 * n, lambda k: k / n - 1.0, keep,
                      None if pattern == "crisscross" else right)


def uniform_refine(mesh: Mesh) -> Mesh:
    """Split every triangle into four congruent children by edge midpoints."""
    edges, tri_edges, _ = mesh.edge_table
    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    nodes = np.vstack([mesh.nodes, midpoints])
    t = mesh.triangles
    mid = mesh.n_nodes + tri_edges                     # (T, 3), m_i opposite v_i
    children = np.empty((mesh.n_triangles, 4, 3), dtype=np.int64)
    children[:, 0] = np.column_stack([t[:, 0], mid[:, 2], mid[:, 1]])
    children[:, 1] = np.column_stack([t[:, 1], mid[:, 0], mid[:, 2]])
    children[:, 2] = np.column_stack([t[:, 2], mid[:, 1], mid[:, 0]])
    children[:, 3] = mid
    return Mesh(nodes, children.reshape(-1, 3))


def bisect_refine(mesh: Mesh, marked) -> Mesh:
    """Newest-vertex bisection of the marked triangles with conforming closure.

    Every marked triangle is bisected through its refinement edge; further
    bisections are added until no hanging nodes remain.  Children carry the
    newest-vertex rule: their refinement edge is the edge opposite the newly
    created midpoint.
    """
    if not isinstance(marked, np.ndarray):
        marked = np.fromiter(marked, dtype=np.int64)
    marked = np.unique(marked.astype(np.int64, copy=False))
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.n_triangles:
        raise ValueError("marked triangle index out of range")

    edges, tri_edges, _ = mesh.edge_table
    n_tri = mesh.n_triangles
    ref = mesh.refinement_edge
    # vertices and edge ids in the local order r, r+1, r+2 (r: refinement edge)
    rot = (ref[:, None] + np.arange(3)) % 3
    v_r, v_a, v_b = np.take_along_axis(mesh.triangles, rot, axis=1).T
    e_r, e_a, e_b = np.take_along_axis(tri_edges, rot, axis=1).T
    split = np.zeros(len(edges), dtype=bool)
    split[e_r[marked]] = True

    # closure: a triangle with any split edge must split its refinement edge
    sweeps = 0
    while True:
        need = split[tri_edges].any(axis=1) & ~split[e_r]
        if not need.any():
            break
        split[e_r[need]] = True
        sweeps += 1
        if sweeps > 64 * n_tri:
            raise RuntimeError("bisection closure failed to terminate; "
                               "refinement metadata is inconsistent")

    split_ids = np.flatnonzero(split)
    new_id = np.full(len(edges), -1, dtype=np.int64)
    new_id[split_ids] = mesh.n_nodes + np.arange(len(split_ids))
    midpoints = 0.5 * (mesh.nodes[edges[split_ids, 0]] + mesh.nodes[edges[split_ids, 1]])
    nodes = np.vstack([mesh.nodes, midpoints])

    # Triangle (v_r, v_a, v_b) with midpoint m on its refinement edge splits
    # into (v_b, v_r, m) and (v_r, v_a, m), whose refinement edges (local 2,
    # opposite m) are the parent's edges a and b; if those are split too,
    # each child splits once more at m_a / m_b.  The grandchildren's
    # refinement edges are new, so a triangle yields at most four leaves,
    # kept in depth-first order: slots 0-1 hold the first child's, 2-3 the
    # second's.
    s = split[e_r]
    s_a, s_b = s & split[e_a], s & split[e_b]
    m, m_a, m_b = new_id[e_r], new_id[e_a], new_id[e_b]
    slots = np.stack([
        np.where(s_a[:, None], np.column_stack([v_r, m, m_a]),
                 np.column_stack([v_b, v_r, m])),
        np.column_stack([m, v_b, m_a]),
        np.where(s_b[:, None], np.column_stack([v_a, m, m_b]),
                 np.column_stack([v_r, v_a, m])),
        np.column_stack([m, v_r, m_b]),
    ], axis=1)
    slots[~s, 0] = mesh.triangles[~s]
    slot_ref = np.full((n_tri, 4), 2, dtype=np.int64)
    slot_ref[~s, 0] = ref[~s]
    leaf = np.column_stack([np.ones(n_tri, dtype=bool), s_a, s, s_b])

    return Mesh(nodes, slots[leaf], slot_ref[leaf])


def validate_mesh(mesh: Mesh) -> None:
    """Check a mesh whose triangles index its nodes (the constructor checks
    that, then runs this); raise MeshError on the first violation."""
    if not np.isfinite(mesh.nodes).all():
        raise MeshError("node coordinates must be finite")
    areas = mesh.areas
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        raise MeshError(f"triangle {bad} has non-positive area {areas[bad]:g}")
    ref = mesh.refinement_edge
    if ref.shape != (mesh.n_triangles,) or np.any((ref < 0) | (ref > 2)):
        raise MeshError("refinement edge must be one local edge (0-2) per triangle")
    # an unused node would be a free dof with a zero row in every operator
    uses = np.bincount(mesh.triangles.ravel(), minlength=mesh.n_nodes)
    if not uses.all():
        raise MeshError(f"node {int(np.argmin(uses))} belongs to no triangle")
    mesh.edge_table        # raises on an edge of three or overlapping triangles


def mesh_stats(mesh: Mesh) -> MeshStats:
    """Node/triangle/boundary counts, mesh size, and P1/P2 dof totals."""
    edges, _, _ = mesh.edge_table
    return MeshStats(
        n_nodes=mesh.n_nodes,
        n_triangles=mesh.n_triangles,
        n_boundary_nodes=int(mesh.boundary_node.sum()),
        h_max=float(mesh.edge_lengths.max()),
        dof_p1=mesh.n_nodes,
        dof_p2=mesh.n_nodes + len(edges),
    )


# the text format, one section per entry: (keyword, values per line, type);
# the boundary section is optional
SECTIONS = (("nodes", 2, float), ("triangles", 3, int), ("boundary", 1, int))


def write_mesh(mesh: Mesh, path) -> None:
    """Write the line-oriented text format of ``SECTIONS``."""
    arrays = (mesh.nodes, mesh.triangles, np.flatnonzero(mesh.boundary_node))
    with open(path, "w") as fh:
        for (word, width, _), values in zip(SECTIONS, arrays):
            fh.write(f"{word} {len(values)}\n")
            for entry in values.reshape(-1, width).tolist():
                fh.write(" ".join(map(repr, entry)) + "\n")


# a node hangs on an edge ab if it lies within HANGING_RTOL |ab| of the line
# ab and projects into ab more than HANGING_RTOL |ab| away from both ends
HANGING_RTOL = 1e-9


def _check_no_hanging_node(mesh: Mesh) -> None:
    """No boundary node lies inside a boundary edge: it would be a vertex of
    the triangles on one side of that edge only.  The candidates of an edge
    are the boundary nodes strictly inside its longer coordinate extent,
    found by sorting the boundary nodes along that coordinate."""
    edges, _, edge_tris = mesh.edge_table
    edges = edges[edge_tris[:, 1] < 0]
    a, b = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
    d = b - a
    ids = np.flatnonzero(mesh.boundary_node)
    long_axis = np.abs(d[:, 1]) > np.abs(d[:, 0])
    for k in (0, 1):
        e = np.flatnonzero(long_axis == k)
        order = ids[np.argsort(mesh.nodes[ids, k])]
        coord = mesh.nodes[order, k]
        lo = np.searchsorted(coord, np.minimum(a[e, k], b[e, k]), "right")
        counts = np.searchsorted(coord, np.maximum(a[e, k], b[e, k])) - lo
        e = np.repeat(e, counts)
        node = order[np.repeat(lo - np.cumsum(counts) + counts, counts)
                     + np.arange(counts.sum())]
        v, de = mesh.nodes[node] - a[e], d[e]
        cross = de[:, 0] * v[:, 1] - de[:, 1] * v[:, 0]
        dot, length2 = (de * v).sum(axis=1), (de * de).sum(axis=1)
        tol = HANGING_RTOL * length2
        hang = np.flatnonzero((np.abs(cross) <= tol) & (dot > tol)
                              & (dot < length2 - tol))
        if hang.size:
            i, j = edges[e[hang[0]]]
            raise MeshError(f"node {node[hang[0]]} hangs on boundary edge "
                            f"({i}, {j}); the triangulation is not conforming")


def read_mesh(path) -> Mesh:
    """Read the text format written by :func:`write_mesh`.

    Boundary flags are recomputed from the connectivity; if the file carries
    a boundary section the stored flags must agree with the recomputed ones.
    Every MeshError names the file.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    arrays, pos = [], 0
    try:
        for word, width, kind in SECTIONS:
            if word == "boundary" and pos == len(tokens):
                break
            if pos < len(tokens) and tokens[pos] != word:
                raise MeshError(f"expected {word!r}, found {tokens[pos]!r}")
            if pos + 2 > len(tokens):
                raise MeshError("truncated mesh file")
            count = int(tokens[pos + 1])
            if count < 0:
                raise MeshError(f"negative {word.removesuffix('s')} count")
            start, pos = pos + 2, pos + 2 + width * count
            if pos > len(tokens):
                raise MeshError("truncated mesh file")
            arrays.append(np.array([kind(v) for v in tokens[start:pos]],
                                   dtype=kind).reshape(count, width))
        if pos != len(tokens):
            raise MeshError("trailing data after boundary section")
        mesh = Mesh(*arrays[:2])
        if len(arrays) == 3 and not np.array_equal(
                np.sort(arrays[2].ravel()), np.flatnonzero(mesh.boundary_node)):
            raise MeshError("stored boundary flags disagree with connectivity")
        _check_no_hanging_node(mesh)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise MeshError(f"{path}: malformed value ({exc})") from exc
    return mesh
