"""Mesh files that are not conforming triangulations, for the tests that
``read_mesh`` and the CLI refuse them.  Each builder returns ``(nodes,
triangles)`` arrays; ``mesh_text`` writes them in the text format of
``mesh.write_mesh`` without the optional boundary section."""

import math

import numpy as np

from eigenrom.mesh import generate_square

# two counterclockwise triangles on the same side of their shared edge
FOLD = (np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 0.5]]),
        np.array([[0, 1, 2], [0, 1, 3]]))


def mesh_text(nodes, triangles) -> str:
    return (f"nodes {len(nodes)}\n"
            + "".join(f"{x!r} {y!r}\n" for x, y in np.asarray(nodes).tolist())
            + f"triangles {len(triangles)}\n"
            + "".join(f"{i} {j} {k}\n"
                      for i, j, k in np.asarray(triangles).tolist()))


def hanging_square():
    """(0, pi)^2 split at x = pi/2: the left half in right-diagonal cells of
    side pi/8 (4 x 8 cells), the right half in cells of side pi/16 (8 x 16).
    The right half's 8 nodes at odd multiples of pi/16 on x = pi/2 hang on
    the left half's edges, so the two halves share only 9 nodes."""
    points = []
    for n, left in ((8, True), (16, False)):
        mesh = generate_square("right", n, math.pi)
        centroid_x = mesh.nodes[mesh.triangles].mean(axis=1)[:, 0]
        points.append(mesh.nodes[mesh.triangles[(centroid_x < math.pi / 2)
                                                == left]])
    # j/8 and 2j/16 of pi are the same double, so shared nodes merge exactly
    nodes, index = np.unique(np.vstack(points).reshape(-1, 2), axis=0,
                             return_inverse=True)
    return nodes, index.reshape(-1, 3)


def duplicate_triangle(mesh, t: int):
    """Triangle t listed twice."""
    return mesh.nodes, np.vstack([mesh.triangles, mesh.triangles[t]])


def reverse_triangle(mesh, t: int):
    """Triangle t with its vertices in clockwise order."""
    triangles = mesh.triangles.copy()
    triangles[t] = triangles[t, ::-1]
    return mesh.nodes, triangles


def split_one_side(mesh, e: int):
    """The interior edge e bisected in its first triangle only: the new
    midpoint hangs on the edge as its second triangle sees it."""
    edges, tri_edges, edge_tris = mesh.edge_table
    t = edge_tris[e, 0]
    local = int(np.flatnonzero(tri_edges[t] == e)[0])
    v0, v1, v2 = np.roll(mesh.triangles[t], -local)   # e is (v1, v2)
    m = mesh.n_nodes
    nodes = np.vstack([mesh.nodes, mesh.nodes[edges[e]].mean(axis=0)])
    triangles = np.vstack([np.delete(mesh.triangles, t, axis=0),
                           [[v0, v1, m], [v0, m, v2]]])
    return nodes, triangles
