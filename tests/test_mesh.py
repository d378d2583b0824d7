import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesh_files import FOLD, hanging_square, mesh_text
from oracles import bisect_recursive, edge_table_by_dict, grid_mesh_by_dict
from test_mesh_golden import BISECTION_STARTS

from eigenrom.mesh import (PATTERNS, Mesh, MeshError, _grid_mesh, bisect_refine,
                           generate, generate_lshape, generate_square, mesh_stats,
                           read_mesh, uniform_refine, validate_mesh, write_mesh)

PI = math.pi


def boundary_distance_square(nodes, side):
    d = np.minimum.reduce([nodes[:, 0], side - nodes[:, 0],
                           nodes[:, 1], side - nodes[:, 1]])
    return d


class TestGenerateSquare:
    @pytest.mark.parametrize("pattern,n,nodes,tris", [
        ("crisscross", 16, 545, 4 * 16 ** 2),
        ("right", 16, 289, 2 * 16 ** 2),
        ("left", 16, 289, 2 * 16 ** 2),
        ("crisscross", 3, 16 + 9, 36),
    ])
    def test_counts(self, pattern, n, nodes, tris):
        m = generate_square(pattern, n, PI)
        assert m.n_nodes == nodes
        assert m.n_triangles == tris

    def test_table_dof_counts(self):
        s = mesh_stats(generate_square("crisscross", 16, PI))
        assert s.dof_p1 == 545
        assert s.dof_p2 == 2113
        assert mesh_stats(generate_square("right", 16, PI)).dof_p1 == 289

    def test_single_cell(self):
        m = generate_square("right", 1, 1.0)
        assert m.n_nodes == 4
        assert m.n_triangles == 2
        assert m.boundary_node.sum() == 4

    def test_areas_sum_to_domain(self):
        for pattern in ("crisscross", "right", "left"):
            m = generate_square(pattern, 7, PI)
            assert abs(m.areas.sum() - PI ** 2) <= 1e-12 * PI ** 2

    def test_boundary_flags_geometric(self):
        m = generate_square("crisscross", 5, PI)
        d = boundary_distance_square(m.nodes, PI)
        assert np.array_equal(m.boundary_node, d <= 1e-12)

    def test_validator_passes(self):
        for pattern in ("crisscross", "right", "left"):
            validate_mesh(generate_square(pattern, 4, 2.0))

    def test_refinement_edge_is_longest(self):
        m = generate_square("right", 3, 1.0)
        lengths = m.edge_lengths
        assert np.array_equal(m.refinement_edge, np.argmax(lengths, axis=1))

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            generate_square("crisscross", 0, 1.0)
        with pytest.raises(ValueError):
            generate_square("crisscross", 4, -1.0)
        with pytest.raises(ValueError):
            generate_square("diag", 4, 1.0)
        with pytest.raises(ValueError, match="unknown domain 'disk'"):
            generate("disk", "crisscross", 4)


class TestGenerateLshape:
    def test_table_dof_counts(self):
        assert mesh_stats(generate_lshape("crisscross", 16)).dof_p1 == 1601
        assert mesh_stats(generate_lshape("mixed", 16)).dof_p1 == 833
        assert mesh_stats(generate_lshape("crisscross", 8)).dof_p2 == 1601
        assert mesh_stats(generate_lshape("crisscross", 16)).dof_p2 == 6273

    def test_unit_subdivision_counts(self):
        m = generate_lshape("crisscross", 1)
        assert m.n_nodes == 11
        assert m.n_triangles == 12

    def test_area(self):
        for pattern in ("crisscross", "mixed"):
            m = generate_lshape(pattern, 4)
            assert abs(m.areas.sum() - 3.0) <= 1e-12 * 3.0

    def test_reentrant_corner_is_boundary(self):
        m = generate_lshape("mixed", 4)
        corner = np.flatnonzero((m.nodes[:, 0] == 0) & (m.nodes[:, 1] == 0))
        assert len(corner) == 1
        assert m.boundary_node[corner[0]]

    def test_mixed_symmetric_about_corner_diagonal(self):
        # reflection (x, y) -> (-y, -x) must map the triangulation to itself
        m = generate_lshape("mixed", 3)
        reflected = np.column_stack([-m.nodes[:, 1], -m.nodes[:, 0]])
        original = {tuple(np.round(p, 12)) for p in m.nodes}
        assert {tuple(np.round(p, 12)) for p in reflected} == original
        tri_sets = {frozenset(tuple(np.round(m.nodes[v], 12)) for v in t)
                    for t in m.triangles}
        refl_sets = {frozenset(tuple(np.round(reflected[v], 12)) for v in t)
                     for t in m.triangles}
        assert tri_sets == refl_sets

    def test_validator_passes(self):
        validate_mesh(generate_lshape("crisscross", 3))
        validate_mesh(generate_lshape("mixed", 5))

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            generate_lshape("crisscross", 0)
        with pytest.raises(ValueError):
            generate_lshape("right", 4)


class TestUniformRefine:
    def test_right_mesh_matches_doubled_resolution(self):
        fine = uniform_refine(generate_square("right", 16, PI))
        direct = generate_square("right", 32, PI)
        assert fine.n_nodes == direct.n_nodes
        a = {tuple(np.round(p, 13)) for p in fine.nodes}
        b = {tuple(np.round(p, 13)) for p in direct.nodes}
        assert a == b

    def test_triangle_count_quadruples(self):
        m = generate_square("right", 1, 1.0)
        assert uniform_refine(m).n_triangles == 8

    def test_h_max_halves(self):
        m = generate_square("crisscross", 4, PI)
        h0 = mesh_stats(m).h_max
        h1 = mesh_stats(uniform_refine(m)).h_max
        assert abs(h1 - h0 / 2) <= 1e-14 * h0

    def test_areas_preserved_and_conforming(self):
        m = uniform_refine(generate_lshape("crisscross", 2))
        validate_mesh(m)
        assert abs(m.areas.sum() - 3.0) <= 1e-12 * 3.0


class TestBisectRefine:
    def test_empty_marking_is_identity(self):
        m = generate_square("crisscross", 2, 1.0)
        assert bisect_refine(m, set()) is m

    def test_single_mark_stays_conforming(self):
        m = generate_square("right", 4, 1.0)
        refined = bisect_refine(m, {9})
        validate_mesh(refined)
        assert refined.n_triangles > m.n_triangles
        assert abs(refined.areas.sum() - 1.0) <= 1e-12

    def test_bisect_all_twice_on_single_cell(self):
        # two bisection rounds of the 2-triangle mesh give 8 triangles,
        # the same count as one uniform (red) refinement
        m = generate_square("right", 1, 1.0)
        once = bisect_refine(m, range(m.n_triangles))
        assert once.n_triangles == 4
        twice = bisect_refine(once, range(once.n_triangles))
        assert twice.n_triangles == 8
        assert twice.n_triangles == uniform_refine(m).n_triangles

    def test_area_lower_bound_after_closure(self):
        m = generate_lshape("crisscross", 2)
        min_area0 = m.areas.min()
        refined = bisect_refine(m, {0, 5, 11})
        depth = 2   # each triangle is bisected at most twice per call
        assert refined.areas.min() >= min_area0 / 2 ** depth - 1e-15

    def test_repeated_refinement_stays_conforming(self, rng):
        m = generate_lshape("mixed", 2)
        for _ in range(5):
            marked = set(rng.choice(m.n_triangles,
                                    size=max(1, m.n_triangles // 6),
                                    replace=False).tolist())
            m = bisect_refine(m, marked)
            validate_mesh(m)
        assert abs(m.areas.sum() - 3.0) <= 1e-12 * 3.0

    def test_closure_reads_every_local_edge(self):
        # triangle 6 of the once-bisected mesh keeps refinement edge 1, and
        # marking triangle 2 splits its local edge 2 (3, 4); a closure that
        # missed that edge left node 10 hanging on it
        mesh = bisect_refine(generate_square("right", 2, 1.0), [0])
        refined = bisect_refine(mesh, [2])
        for got, want in zip((refined.nodes, refined.triangles,
                              refined.refinement_edge),
                             bisect_recursive(mesh, [2])):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("marked, message", [
        (None, "out of range"),
        (np.arange(48) == 5, "bool"),       # a mask, read as indices 0 and 1
        ([0.7], "float64"),                 # truncated to triangle 0
        (np.array([2.9]), "float64"),       # truncated to triangle 2
    ], ids=["past-the-end", "bool-mask", "float-list", "float-array"])
    def test_out_of_range_mark_rejected(self, marked, message):
        if marked is None:
            m = generate_square("right", 2, 1.0)
            marked = {m.n_triangles}
        else:
            m = generate_lshape("crisscross", 2)                # 48 triangles
        with pytest.raises(ValueError, match=message):
            bisect_refine(m, marked)

    def test_every_form_of_the_marked_set_gives_one_mesh(self):
        # ``adapt.mark`` hands over a sorted int64 array; any iterable of the
        # same indices, in any order and with repeats, must refine alike
        m = generate_lshape("mixed", 2)
        idx = [3, 17, 4, 20, 9]
        forms = [np.array(sorted(idx), dtype=np.int64),
                 np.array(idx + idx[::2], dtype=np.int64),
                 np.array(idx, dtype=np.int32), idx, set(idx), (i for i in idx)]
        want = bisect_refine(m, sorted(idx))
        for marked in forms:
            got = bisect_refine(m, marked)
            for field in ("nodes", "triangles", "refinement_edge"):
                assert np.array_equal(getattr(got, field), getattr(want, field))


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        m = generate_square("crisscross", 4, PI)
        path = tmp_path / "square.mesh"
        write_mesh(m, path)
        back = read_mesh(path)
        assert np.array_equal(back.nodes, m.nodes)          # bit-exact coords
        assert np.array_equal(back.triangles, m.triangles)
        assert np.array_equal(back.boundary_node, m.boundary_node)

    def test_boundary_section_optional(self, tmp_path):
        m = generate_square("right", 2, 1.0)
        path = tmp_path / "no_boundary.mesh"
        lines = [f"nodes {m.n_nodes}"]
        lines += [f"{float(x)!r} {float(y)!r}" for x, y in m.nodes]
        lines += [f"triangles {m.n_triangles}"]
        lines += [f"{i} {j} {k}" for i, j, k in m.triangles]
        path.write_text("\n".join(lines) + "\n")
        back = read_mesh(path)
        assert np.array_equal(back.boundary_node, m.boundary_node)

    def test_zero_area_triangle_rejected(self, tmp_path):
        path = tmp_path / "degenerate.mesh"
        path.write_text("nodes 3\n0.0 0.0\n1.0 0.0\n2.0 0.0\n"
                        "triangles 1\n0 1 2\n")
        with pytest.raises(MeshError):
            read_mesh(path)

    def test_edge_shared_by_three_triangles_rejected(self, tmp_path):
        path = tmp_path / "triple.mesh"
        path.write_text(
            "nodes 5\n0.0 0.0\n1.0 0.0\n0.5 1.0\n0.5 -1.0\n1.5 1.0\n"
            "triangles 3\n0 1 2\n1 0 3\n0 1 4\n")
        with pytest.raises(MeshError):
            read_mesh(path)

    def test_out_of_range_node_index_rejected(self, tmp_path):
        # rejected as a MeshError, not an IndexError from the coordinate lookup
        path = tmp_path / "index.mesh"
        path.write_text("nodes 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                        "triangles 1\n0 1 3\n")
        with pytest.raises(MeshError, match=re.escape(f"{path}: ")
                           + "triangle references an invalid node index"):
            read_mesh(path)

    def test_flipped_triangle_rejected(self, tmp_path):
        # the constructor's errors name the file, like the parser's own
        path = tmp_path / "flipped.mesh"
        path.write_text("nodes 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                        "triangles 1\n0 2 1\n")
        with pytest.raises(MeshError, match=re.escape(f"{path}: ")
                           + "triangle 0 has non-positive area -0.5"):
            read_mesh(path)

    def test_non_finite_coordinate_rejected(self, tmp_path):
        # a NaN area compares false with <= 0, so only this check stops it
        path = tmp_path / "nan.mesh"
        path.write_text("nodes 4\n0.0 0.0\n1.0 0.0\nnan 1.0\n0.0 1.0\n"
                        "triangles 2\n0 1 3\n1 2 3\n")
        with pytest.raises(MeshError, match="finite"):
            read_mesh(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.mesh"
        path.write_text("nodes 2\n0.0 0.0\n")
        with pytest.raises(MeshError):
            read_mesh(path)

    @pytest.mark.parametrize("text", ["", "nodes\n"], ids=["empty", "lone-word"])
    def test_file_without_a_count_rejected(self, tmp_path, text):
        path = tmp_path / "short.mesh"
        path.write_text(text)
        with pytest.raises(MeshError) as info:
            read_mesh(path)
        assert str(info.value) == f"{path}: truncated mesh file"

    def test_misspelt_section_word_rejected(self, tmp_path):
        path = tmp_path / "misspelt.mesh"
        path.write_text("nodes 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                        "triangle 1\n0 1 2\n")
        with pytest.raises(MeshError) as info:
            read_mesh(path)
        assert str(info.value) == f"{path}: expected 'triangles', found 'triangle'"

    def test_token_after_boundary_section_rejected(self, tmp_path):
        path = tmp_path / "trailing.mesh"
        write_mesh(generate_square("right", 2, 1.0), path)
        path.write_text(path.read_text() + "0\n")
        with pytest.raises(MeshError) as info:
            read_mesh(path)
        assert str(info.value) == f"{path}: trailing data after boundary section"

    def test_negative_count_names_the_file_once(self, tmp_path):
        path = tmp_path / "negative.mesh"
        path.write_text("nodes -1\n")
        with pytest.raises(MeshError) as info:
            read_mesh(path)
        assert str(info.value) == f"{path}: negative node count"

    def test_negative_boundary_count_rejected(self, tmp_path):
        # used to read as "trailing data after boundary section"
        path = tmp_path / "negative.mesh"
        path.write_text("nodes 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                        "triangles 1\n0 1 2\nboundary -1\n")
        with pytest.raises(MeshError) as info:
            read_mesh(path)
        assert str(info.value) == f"{path}: negative boundary count"

    def test_index_beyond_int64_rejected(self, tmp_path):
        # a MeshError, not an OverflowError that escapes the CLI's handling
        path = tmp_path / "overflow.mesh"
        path.write_text("nodes 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                        "triangles 1\n0 1 99999999999999999999\n")
        with pytest.raises(MeshError, match=re.escape(f"{path}: malformed value")):
            read_mesh(path)

    def test_hanging_node_rejected(self, tmp_path):
        # read as two Dirichlet rectangles, this square's lambda_fom was
        # 5.1065, not the 2.0193 of its conforming fine mesh
        nodes, tris = hanging_square()
        path = tmp_path / "hanging.mesh"
        path.write_text(mesh_text(nodes, tris))
        with pytest.raises(MeshError, match=re.escape(f"{path}: node ")
                           + r"\d+ hangs on boundary edge"):
            read_mesh(path)

    def test_stale_boundary_flags_rejected(self, tmp_path):
        m = generate_square("right", 2, 1.0)
        path = tmp_path / "stale.mesh"
        write_mesh(m, path)
        text = path.read_text().splitlines()
        idx = text.index(f"boundary {int(m.boundary_node.sum())}")
        interior = int(np.flatnonzero(~m.boundary_node)[0])
        text[idx + 1] = str(interior)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(MeshError):
            read_mesh(path)


class TestEdgeTable:
    def test_interior_and_boundary_edge_counts(self):
        m = generate_square("crisscross", 16, PI)
        edges, _, edge_tris = m.edge_table
        # Euler: E = V + T - 1 for a simply connected planar triangulation
        assert len(edges) == m.n_nodes + m.n_triangles - 1
        assert (edge_tris[:, 1] < 0).sum() == 4 * 16

    def test_built_once_and_read_only(self):
        m = generate_lshape("mixed", 2)
        first = m.edge_table
        assert all(a is b for a, b in zip(first, m.edge_table))
        assert m.boundary_node is m.boundary_node
        for arr in (*first, m.boundary_node):
            assert not arr.flags.writeable
        assert [f.name for f in dataclasses.fields(Mesh)] == [
            "nodes", "triangles", "refinement_edge"]

    def test_caller_arrays_stay_writable(self):
        m = generate_square("right", 2, 1.0)
        nodes = np.array(m.nodes)
        tris = np.array(m.triangles)
        ref = np.array(m.refinement_edge)
        copy = Mesh(nodes, tris, ref)
        for mine, theirs in ((nodes, copy.nodes), (tris, copy.triangles),
                             (ref, copy.refinement_edge)):
            assert mine.flags.writeable and not theirs.flags.writeable
            assert np.array_equal(mine, theirs)
        nodes[0, 0] = 0.5
        assert copy.nodes[0, 0] == m.nodes[0, 0]

    def test_validator_rejects_flipped_triangle(self):
        # the constructor validates: a flipped triangle never makes a Mesh
        m = generate_square("right", 2, 1.0)
        tris = m.triangles.copy()
        tris[0] = tris[0][::-1]
        with pytest.raises(MeshError, match="non-positive area"):
            Mesh(m.nodes.copy(), tris, m.refinement_edge.copy())


class TestConstruction:
    NODES = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("tris", [[[0, 1, 5]], [[-1, 1, 2]]])
    def test_out_of_range_node_index(self, tris):
        with pytest.raises(MeshError, match="invalid node index"):
            Mesh(self.NODES, tris)

    @pytest.mark.parametrize("ref", [[7], [-1], [0, 1]])
    def test_bad_refinement_edge(self, ref):
        with pytest.raises(MeshError, match="refinement edge"):
            Mesh(self.NODES, [[0, 1, 2]], ref)

    @pytest.mark.parametrize("nodes,tris", [
        ([0.0, 1.0, 2.0], [[0, 1, 2]]),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1]]),
    ])
    def test_bad_array_shapes(self, nodes, tris):
        with pytest.raises(MeshError, match="shape"):
            Mesh(nodes, tris)

    @pytest.mark.parametrize("nodes,tris,unused", [
        (NODES + [[1.0, 1.0]], [[0, 1, 2]], 3),
        (NODES, np.zeros((0, 3), dtype=np.int64), 0),
    ])
    def test_node_outside_every_triangle(self, nodes, tris, unused):
        # an unused node would be a free dof with a zero row in A and M
        with pytest.raises(MeshError,
                           match=f"node {unused} belongs to no triangle"):
            Mesh(nodes, tris)

    @pytest.mark.parametrize("tris", [FOLD[1], [[0, 1, 2], [0, 1, 2]],
                                      [[0, 1, 2], [1, 2, 0]]])
    def test_overlapping_triangles(self, tris):
        # both traverse their shared edge 0 -> 1: a fold, or one triangle
        # listed twice (which left no boundary node at all)
        with pytest.raises(MeshError,
                           match="triangles 0 and 1 overlap across a shared edge"):
            Mesh(FOLD[0][:np.max(tris) + 1], tris)


def geometric_boundary(domain, nodes):
    """Nodes on the boundary of the unit square or of the L-shape."""
    x, y = nodes[:, 0], nodes[:, 1]
    tol = 1e-12
    if domain == "square":
        return boundary_distance_square(nodes, 1.0) <= tol
    outer = (np.abs(np.abs(x) - 1) <= tol) | (np.abs(np.abs(y) - 1) <= tol)
    reentrant = ((np.abs(x) <= tol) & (y <= tol)) | ((np.abs(y) <= tol) & (x >= -tol))
    return outer | reentrant


class TestBisectionProperties:
    STARTS = {
        "lshape-mixed": lambda: generate_lshape("mixed", 1),
        "lshape-crisscross": lambda: generate_lshape("crisscross", 1),
        "square-right": lambda: generate_square("right", 2, 1.0),
    }

    @given(start=st.sampled_from(sorted(STARTS)), data=st.data(),
           rounds=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_random_markings_keep_invariants(self, start, data, rounds):
        domain = start.split("-")[0]
        mesh = self.STARTS[start]()
        area = mesh.areas.sum()
        for _ in range(rounds):
            marked = data.draw(st.lists(
                st.integers(min_value=0, max_value=mesh.n_triangles - 1),
                min_size=1, max_size=mesh.n_triangles))
            refined = bisect_refine(mesh, marked)
            validate_mesh(refined)
            for got, want in zip((refined.nodes, refined.triangles,
                                  refined.refinement_edge),
                                 bisect_recursive(mesh, marked)):
                assert np.array_equal(got, want)
            areas = refined.areas
            assert abs(areas.sum() - area) <= 1e-12 * area
            assert np.array_equal(refined.boundary_node,
                                  geometric_boundary(domain, refined.nodes))
            # each triangle is bisected at most twice per call
            assert areas.min() >= mesh.areas.min() / 4 * (1 - 1e-12)
            # Euler's formula for a conforming simply connected triangulation
            # (a hanging node would add a spurious face)
            n_edges = len(refined.edge_table[0])
            assert n_edges == refined.n_nodes + refined.n_triangles - 1
            mesh = refined

    @given(start=st.sampled_from(sorted(STARTS)), data=st.data(),
           rounds=st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_bisected_meshes_read_back(self, tmp_path_factory, start, data,
                                       rounds):
        # bisection conforms by construction: no node of a written result
        # hangs on a boundary edge when it is read back
        mesh = self.STARTS[start]()
        for _ in range(rounds):
            mesh = bisect_refine(mesh, data.draw(st.lists(
                st.integers(min_value=0, max_value=mesh.n_triangles - 1),
                min_size=1, max_size=mesh.n_triangles)))
        path = tmp_path_factory.mktemp("bisected") / "m.mesh"
        write_mesh(mesh, path)
        back = read_mesh(path)
        assert np.array_equal(back.triangles, mesh.triangles)


class TestConnectivityOracle:
    """The array edge table, boundary flags and node renumbering against
    loops over dicts, on meshes that drop grid points or are bisected."""

    @staticmethod
    def check_connectivity(mesh):
        want = edge_table_by_dict(mesh.triangles)
        for got, expected in zip(mesh.edge_table, want):
            assert np.array_equal(got, expected)
        edges, _, edge_tris = want
        boundary = np.zeros(mesh.n_nodes, dtype=bool)
        for (a, b), (_, other) in zip(edges.tolist(), edge_tris.tolist()):
            if other < 0:
                boundary[[a, b]] = True
        assert np.array_equal(mesh.boundary_node, boundary)

    @given(start=st.sampled_from(BISECTION_STARTS), data=st.data(),
           rounds=st.integers(min_value=0, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_bisected_golden_starts(self, start, data, rounds):
        mesh = generate(*start)
        for _ in range(rounds):
            mesh = bisect_refine(mesh, data.draw(st.lists(
                st.integers(min_value=0, max_value=mesh.n_triangles - 1),
                min_size=1, max_size=mesh.n_triangles)))
        self.check_connectivity(mesh)

    @given(pattern=st.sampled_from(("crisscross", "mixed")),
           n=st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_generated_lshape(self, pattern, n):
        mesh = generate_lshape(pattern, n)
        j, i = np.indices((2 * n, 2 * n))
        keep = ~((i >= n) & (j < n))
        right = None if pattern == "crisscross" else ~((i < n) & (j >= n))
        nodes, tris = grid_mesh_by_dict(2 * n, lambda k: k / n - 1.0, keep, right)
        assert np.array_equal(mesh.nodes, nodes)
        assert np.array_equal(mesh.triangles, tris)
        self.check_connectivity(mesh)

    @given(m=st.integers(min_value=1, max_value=5), data=st.data(),
           crisscross=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_cell_masks(self, m, data, crisscross):
        # any set of kept cells drops the grid points of no kept cell
        cells = st.lists(st.booleans(), min_size=m * m, max_size=m * m)
        keep = np.array(data.draw(cells.filter(any))).reshape(m, m)
        right = None if crisscross else np.array(data.draw(cells)).reshape(m, m)
        mesh = _grid_mesh(m, lambda k: k / m, keep, right)
        nodes, tris = grid_mesh_by_dict(m, lambda k: k / m, keep, right)
        assert np.array_equal(mesh.nodes, nodes)
        assert np.array_equal(mesh.triangles, tris)
        self.check_connectivity(mesh)


class TestEdgeDataOracle:
    """The cached edge data (boundary edges, edge midpoints, six-node cells)
    against loops over the dict edge table, bit for bit."""

    @staticmethod
    def check_edge_data(mesh):
        edges, _, edge_tris = edge_table_by_dict(mesh.triangles)
        nodes = mesh.nodes.tolist()
        edge_id = {tuple(pair): e for e, pair in enumerate(edges.tolist())}
        want = {
            "boundary_edge": np.array(
                [sum(t >= 0 for t in tris) == 1 for tris in edge_tris.tolist()],
                dtype=bool),
            "edge_midpoints": np.array(
                [[0.5 * (nodes[a][k] + nodes[b][k]) for k in (0, 1)]
                 for a, b in edges.tolist()], dtype=np.float64).reshape(-1, 2),
            "six_node_cells": np.array(
                [tri + [mesh.n_nodes + edge_id[tuple(sorted(tri[:i] + tri[i + 1:]))]
                        for i in range(3)] for tri in mesh.triangles.tolist()],
                dtype=np.int64).reshape(-1, 6),
        }
        for name, expected in want.items():
            got = getattr(mesh, name)
            assert got is getattr(mesh, name) and not got.flags.writeable
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), name

    @given(start=st.sampled_from(BISECTION_STARTS), data=st.data(),
           rounds=st.integers(min_value=0, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_bisected_golden_starts(self, start, data, rounds):
        mesh = generate(*start)
        for _ in range(rounds):
            mesh = bisect_refine(mesh, data.draw(st.lists(
                st.integers(min_value=0, max_value=mesh.n_triangles - 1),
                min_size=1, max_size=mesh.n_triangles)))
        self.check_edge_data(mesh)

    @given(start=st.sampled_from([(domain, pattern) for domain, patterns
                                  in PATTERNS.items() for pattern in patterns]),
           n=st.integers(min_value=1, max_value=6), refined=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_generated(self, start, n, refined):
        mesh = generate(*start, n)
        self.check_edge_data(uniform_refine(mesh) if refined else mesh)
