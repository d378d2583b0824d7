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
* Boundary flags are determined topologically: a boundary edge belongs to
  exactly one triangle, and a boundary node lies on a boundary edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeshError(ValueError):
    """Invalid mesh data (geometry, connectivity, or file contents)."""


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation of a planar domain.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, 2)
        Vertex coordinates.
    triangles : ndarray, shape (n_triangles, 3)
        Vertex indices, counterclockwise.
    boundary_node : ndarray of bool, shape (n_nodes,)
        True for nodes on the domain boundary.
    refinement_edge : ndarray, shape (n_triangles,)
        Local edge index (0-2) used by newest-vertex bisection.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_node: np.ndarray
    refinement_edge: np.ndarray

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_node = np.ascontiguousarray(self.boundary_node, dtype=bool)
        self.refinement_edge = np.ascontiguousarray(self.refinement_edge, dtype=np.int64)
        for arr in (self.nodes, self.triangles, self.boundary_node, self.refinement_edge):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass
class MeshStats:
    n_nodes: int
    n_triangles: int
    n_boundary_nodes: int
    h_max: float
    dof_p1: int
    dof_p2: int


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed areas of all triangles (positive for counterclockwise)."""
    p = mesh.nodes[mesh.triangles]
    u = p[:, 1] - p[:, 0]
    v = p[:, 2] - p[:, 0]
    return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def edge_lengths(mesh: Mesh) -> np.ndarray:
    """Lengths of the three local edges of every triangle, shape (T, 3)."""
    p = mesh.nodes[mesh.triangles]
    out = np.empty((mesh.n_triangles, 3))
    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        out[:, i] = np.hypot(*(p[:, a] - p[:, b]).T)
    return out


def edge_table(mesh: Mesh):
    """Unique-edge connectivity.

    Returns
    -------
    edges : ndarray, shape (E, 2)
        Endpoint indices with ``edges[:, 0] < edges[:, 1]``, lexicographically
        sorted.
    tri_edges : ndarray, shape (T, 3)
        Edge id of each local edge (local edge ``i`` opposite vertex ``i``).
    edge_tris : ndarray, shape (E, 2)
        The one or two triangles containing each edge; -1 marks absence.
        When two are present they are in increasing triangle order.
    """
    t = mesh.triangles
    raw = np.stack([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=1).reshape(-1, 2)
    raw_sorted = np.sort(raw, axis=1)
    edges, inverse = np.unique(raw_sorted, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    tri_edges = inverse.reshape(-1, 3)

    counts = np.bincount(inverse, minlength=len(edges))
    if counts.max(initial=0) > 2:
        raise MeshError("edge shared by more than two triangles")
    order = np.argsort(inverse, kind="stable")
    tri_of = order // 3
    starts = np.concatenate([[0], np.cumsum(counts)])
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_tris[:, 0] = tri_of[starts[:-1]]
    two = counts == 2
    edge_tris[two, 1] = tri_of[starts[:-1][two] + 1]
    return edges, tri_edges, edge_tris


def _boundary_flags(n_nodes, edges, edge_tris):
    flags = np.zeros(n_nodes, dtype=bool)
    boundary_edges = edges[edge_tris[:, 1] < 0]
    flags[boundary_edges.reshape(-1)] = True
    return flags


def _finish(nodes, triangles):
    """Assemble a Mesh from raw arrays: sort nodes by (y, x), compute flags."""
    nodes = np.asarray(nodes, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    order = np.lexsort((nodes[:, 0], nodes[:, 1]))
    rank = np.empty(len(nodes), dtype=np.int64)
    rank[order] = np.arange(len(nodes))
    nodes = nodes[order]
    triangles = rank[triangles]
    mesh = _from_arrays(nodes, triangles)
    validate_mesh(mesh)
    return mesh


def _from_arrays(nodes, triangles):
    """Build a Mesh with topological boundary flags and longest-edge markers."""
    probe = Mesh(nodes, triangles, np.zeros(len(nodes), dtype=bool),
                 np.zeros(len(triangles), dtype=np.int64))
    edges, _, edge_tris = edge_table(probe)
    flags = _boundary_flags(len(nodes), edges, edge_tris)
    ref = np.argmax(edge_lengths(probe), axis=1)
    return Mesh(probe.nodes, probe.triangles, flags, ref)


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
    if pattern not in ("crisscross", "right", "left"):
        raise ValueError(f"unknown square pattern {pattern!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not side > 0:
        raise ValueError("side must be positive")

    ticks = (np.arange(n + 1) / n) * side
    xg, yg = np.meshgrid(ticks, ticks)          # index [j, i] = (x_i, y_j)
    grid = np.column_stack([xg.ravel(), yg.ravel()])

    def gid(i, j):
        return j * (n + 1) + i

    tris = []
    if pattern == "crisscross":
        centers = (np.arange(n) + 0.5) / n * side
        cx, cy = np.meshgrid(centers, centers)
        nodes = np.vstack([grid, np.column_stack([cx.ravel(), cy.ravel()])])
        for j in range(n):
            for i in range(n):
                c = (n + 1) ** 2 + j * n + i
                bl, br = gid(i, j), gid(i + 1, j)
                tr, tl = gid(i + 1, j + 1), gid(i, j + 1)
                tris += [(bl, br, c), (br, tr, c), (tr, tl, c), (tl, bl, c)]
    else:
        nodes = grid
        for j in range(n):
            for i in range(n):
                bl, br = gid(i, j), gid(i + 1, j)
                tr, tl = gid(i + 1, j + 1), gid(i, j + 1)
                if pattern == "right":
                    tris += [(bl, br, tr), (bl, tr, tl)]
                else:
                    tris += [(bl, br, tl), (br, tr, tl)]
    return _finish(nodes, tris)


def generate_lshape(pattern: str, n: int) -> Mesh:
    """Structured triangulation of (-1,1)^2 minus the quadrant [0,1]x[-1,0].

    ``n`` is the number of subintervals per unit-square side.  The
    "crisscross" pattern subdivides every cell through its centre.  The
    "mixed" pattern uses one diagonal per unit square, oriented symmetrically
    about the reentrant corner: bottom-left and top-right squares use the
    bottom-left/top-right diagonal, the top-left square the other one.
    """
    if pattern not in ("crisscross", "mixed"):
        raise ValueError(f"unknown L-shape pattern {pattern!r}")
    if n < 1:
        raise ValueError("n must be >= 1")

    m = 2 * n
    ticks = np.arange(m + 1) / n - 1.0

    def keep_node(i, j):
        # exclude nodes strictly inside the removed quadrant x>0, y<0
        return not (ticks[i] > 0 and ticks[j] < 0)

    gid = -np.ones((m + 1, m + 1), dtype=np.int64)
    nodes = []
    for j in range(m + 1):
        for i in range(m + 1):
            if keep_node(i, j):
                gid[i, j] = len(nodes)
                nodes.append((ticks[i], ticks[j]))
    nodes = np.array(nodes)

    tris = []
    centers = []
    for j in range(m):
        for i in range(m):
            cx = (i + 0.5) / n - 1.0
            cy = (j + 0.5) / n - 1.0
            if cx > 0 and cy < 0:
                continue
            bl, br = gid[i, j], gid[i + 1, j]
            tr, tl = gid[i + 1, j + 1], gid[i, j + 1]
            if pattern == "crisscross":
                c = len(nodes) + len(centers)
                centers.append((cx, cy))
                tris += [(bl, br, c), (br, tr, c), (tr, tl, c), (tl, bl, c)]
            else:
                right_diag = not (cx < 0 and cy > 0)
                if right_diag:
                    tris += [(bl, br, tr), (bl, tr, tl)]
                else:
                    tris += [(bl, br, tl), (br, tr, tl)]
    if centers:
        nodes = np.vstack([nodes, np.array(centers)])
    return _finish(nodes, tris)


def uniform_refine(mesh: Mesh) -> Mesh:
    """Split every triangle into four congruent children by edge midpoints."""
    edges, tri_edges, _ = edge_table(mesh)
    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    nodes = np.vstack([mesh.nodes, midpoints])
    t = mesh.triangles
    mid = mesh.n_nodes + tri_edges                     # (T, 3), m_i opposite v_i
    children = np.empty((mesh.n_triangles, 4, 3), dtype=np.int64)
    children[:, 0] = np.column_stack([t[:, 0], mid[:, 2], mid[:, 1]])
    children[:, 1] = np.column_stack([t[:, 1], mid[:, 0], mid[:, 2]])
    children[:, 2] = np.column_stack([t[:, 2], mid[:, 1], mid[:, 0]])
    children[:, 3] = mid
    refined = _from_arrays(nodes, children.reshape(-1, 3))
    validate_mesh(refined)
    return refined


def bisect_refine(mesh: Mesh, marked) -> Mesh:
    """Newest-vertex bisection of the marked triangles with conforming closure.

    Every marked triangle is bisected through its refinement edge; further
    bisections are added until no hanging nodes remain.  Children carry the
    newest-vertex rule: their refinement edge is the edge opposite the newly
    created midpoint.
    """
    marked = np.asarray(sorted(set(int(i) for i in marked)), dtype=np.int64)
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.n_triangles:
        raise ValueError("marked triangle index out of range")

    edges, tri_edges, _ = edge_table(mesh)
    n_tri = mesh.n_triangles
    ref = mesh.refinement_edge
    split = np.zeros(len(edges), dtype=bool)
    split[tri_edges[marked, ref[marked]]] = True

    # closure: a triangle with any split edge must split its refinement edge
    ref_edge_ids = tri_edges[np.arange(n_tri), ref]
    sweeps = 0
    while True:
        need = split[tri_edges].any(axis=1) & ~split[ref_edge_ids]
        if not need.any():
            break
        split[ref_edge_ids[need]] = True
        sweeps += 1
        if sweeps > 64 * n_tri:
            raise RuntimeError("bisection closure failed to terminate; "
                               "refinement metadata is inconsistent")

    split_ids = np.flatnonzero(split)
    new_id = np.full(len(edges), -1, dtype=np.int64)
    new_id[split_ids] = mesh.n_nodes + np.arange(len(split_ids))
    midpoints = 0.5 * (mesh.nodes[edges[split_ids, 0]] + mesh.nodes[edges[split_ids, 1]])
    nodes = np.vstack([mesh.nodes, midpoints]) if len(split_ids) else mesh.nodes.copy()

    out_tris = []
    out_ref = []

    def bisect(tri, loc_edges, r):
        """Split (tri, refinement edge r) recursively; loc_edges maps local
        edge -> parent edge id (or -1 for edges created by bisection)."""
        e = loc_edges[r]
        if e < 0 or not split[e]:
            out_tris.append(tri)
            out_ref.append(r)
            return
        mark_mid = new_id[e]
        a, b, c = (r + 1) % 3, (r + 2) % 3, r
        # children (v_{r+2}, v_r, m) and (v_r, v_{r+1}, m); refinement edge is
        # local edge 2 (opposite the new vertex)
        child1 = (tri[b], tri[c], mark_mid)
        child2 = (tri[c], tri[a], mark_mid)
        bisect(child1, (-1, -1, loc_edges[a]), 2)
        bisect(child2, (-1, -1, loc_edges[b]), 2)

    for t in range(n_tri):
        tri = tuple(int(v) for v in mesh.triangles[t])
        loc = tuple(int(e) for e in tri_edges[t])
        bisect(tri, loc, int(ref[t]))

    refined = Mesh(nodes, np.array(out_tris, dtype=np.int64),
                   np.zeros(len(nodes), dtype=bool),
                   np.array(out_ref, dtype=np.int64))
    e2, _, et2 = edge_table(refined)
    refined = Mesh(nodes, refined.triangles,
                   _boundary_flags(len(nodes), e2, et2), refined.refinement_edge)
    validate_mesh(refined)
    return refined


def validate_mesh(mesh: Mesh) -> None:
    """Check the mesh invariants; raise MeshError on the first violation."""
    if mesh.triangles.size and (mesh.triangles.min() < 0
                                or mesh.triangles.max() >= mesh.n_nodes):
        raise MeshError("triangle references an invalid node index")
    areas = triangle_areas(mesh)
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        raise MeshError(f"triangle {bad} has non-positive area {areas[bad]:g}")
    if mesh.refinement_edge.size and (mesh.refinement_edge.min() < 0
                                      or mesh.refinement_edge.max() > 2):
        raise MeshError("refinement edge index out of range")
    edges, _, edge_tris = edge_table(mesh)       # raises if an edge has > 2 triangles
    flags = _boundary_flags(mesh.n_nodes, edges, edge_tris)
    if not np.array_equal(flags, mesh.boundary_node):
        raise MeshError("stored boundary flags disagree with mesh topology")


def mesh_stats(mesh: Mesh) -> MeshStats:
    """Node/triangle/boundary counts, mesh size, and P1/P2 dof totals."""
    edges, _, _ = edge_table(mesh)
    return MeshStats(
        n_nodes=mesh.n_nodes,
        n_triangles=mesh.n_triangles,
        n_boundary_nodes=int(mesh.boundary_node.sum()),
        h_max=float(edge_lengths(mesh).max()),
        dof_p1=mesh.n_nodes,
        dof_p2=mesh.n_nodes + len(edges),
    )


def write_mesh(mesh: Mesh, path) -> None:
    """Write the line-oriented text format (nodes, triangles, boundary)."""
    with open(path, "w") as fh:
        fh.write(f"nodes {mesh.n_nodes}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"triangles {mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        boundary = np.flatnonzero(mesh.boundary_node)
        fh.write(f"boundary {len(boundary)}\n")
        for i in boundary:
            fh.write(f"{i}\n")


def read_mesh(path) -> Mesh:
    """Read the text format written by :func:`write_mesh`.

    Boundary flags are recomputed from the connectivity; if the file carries
    a boundary section the stored flags must agree with the recomputed ones.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    pos = 0

    def take(n=1):
        nonlocal pos
        if pos + n > len(tokens):
            raise MeshError(f"{path}: truncated mesh file")
        out = tokens[pos:pos + n]
        pos += n
        return out

    def expect(word):
        got = take()[0]
        if got != word:
            raise MeshError(f"{path}: expected {word!r}, found {got!r}")

    try:
        expect("nodes")
        n_nodes = int(take()[0])
        if n_nodes < 0:
            raise MeshError(f"{path}: negative node count")
        coords = np.array([float(v) for v in take(2 * n_nodes)]).reshape(n_nodes, 2)
        expect("triangles")
        n_tris = int(take()[0])
        if n_tris < 0:
            raise MeshError(f"{path}: negative triangle count")
        tris = np.array([int(v) for v in take(3 * n_tris)], dtype=np.int64).reshape(n_tris, 3)
        stored_boundary = None
        if pos < len(tokens):
            expect("boundary")
            n_b = int(take()[0])
            stored_boundary = np.array([int(v) for v in take(n_b)], dtype=np.int64)
        if pos != len(tokens):
            raise MeshError(f"{path}: trailing data after boundary section")
    except ValueError as exc:
        raise MeshError(f"{path}: malformed value ({exc})") from exc

    mesh = _from_arrays(coords, tris)
    validate_mesh(mesh)
    if stored_boundary is not None:
        recomputed = np.flatnonzero(mesh.boundary_node)
        if not np.array_equal(np.sort(stored_boundary), recomputed):
            raise MeshError(f"{path}: stored boundary flags disagree with connectivity")
    return mesh
