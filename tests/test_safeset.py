"""Convex safe-region geometry and the feasibility sweep."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from gaitbo.domain import ControlParams, GaitParameter, SeedSpec
from gaitbo.errors import ConfigurationError, DegenerateGeometryError
from gaitbo import safeset
from gaitbo.objective import ConvergedStats, converged_stats
from gaitbo.plant import learning_profile, real_config, run_episode, sim_config, stepping_start
from gaitbo.safeset import (
    SafePolyhedron,
    SweepResult,
    constraint_value,
    contains,
    convex_hull,
    load_polyhedron,
    polyhedron_from_json_dict,
    polyhedron_to_json_dict,
    save_polyhedron,
    sweep_commands,
)
from gaitbo.scheduler import GainTable

TETRA = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
])

CUBE = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])


def in_hull_oracle(points: np.ndarray, x: np.ndarray) -> bool:
    """Linear-program membership: is x a convex combination of the points?"""
    m = points.shape[0]
    A_eq = np.vstack([points.T, np.ones(m)])
    b_eq = np.append(x, 1.0)
    res = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0, 1)] * m,
                  method="highs")
    return res.status == 0


class TestConvexHull:
    def test_tetrahedron_has_four_faces(self):
        poly = convex_hull(TETRA)
        assert poly.vertices.shape == (4, 3)
        assert len(poly.faces) == 4

    def test_cube_keeps_corners_discards_interior(self):
        points = np.vstack([CUBE, [[0.5, 0.5, 0.5], [0.25, 0.5, 0.5]]])
        poly = convex_hull(points)
        assert poly.vertices.shape == (8, 3)
        got = {tuple(v) for v in np.round(poly.vertices, 12)}
        assert got == {tuple(v) for v in CUBE}

    def test_accepts_gait_parameters(self):
        pts = [GaitParameter(*v) for v in TETRA + np.array([0.0, 0.0, 1.0])]
        poly = convex_hull(pts)
        assert poly.vertices.shape == (4, 3)

    def test_too_few_points(self):
        with pytest.raises(DegenerateGeometryError):
            convex_hull(TETRA[:3])

    @pytest.mark.parametrize("gamma", [0.0, float("nan")])
    def test_gamma_checked_before_the_hull(self, gamma):
        # The message SafePolyhedron gives, not a face or vertex failure
        # downstream of qhull.
        with pytest.raises(ConfigurationError, match=r"gamma must be in \(0, 1\]"):
            convex_hull(CUBE, gamma)

    def test_rejects_non_finite_point(self):
        points = np.vstack([CUBE, [[np.nan, 0.5, 0.5]]])
        with pytest.raises(ValueError, match="hull points must be finite"):
            convex_hull(points)

    def test_coplanar_points(self):
        flat = np.array([[0, 0, 0.5], [1, 0, 0.5], [0, 1, 0.5], [1, 1, 0.5],
                         [0.3, 0.3, 0.5]], dtype=float)
        with pytest.raises(DegenerateGeometryError):
            convex_hull(flat)

    def test_idempotent_on_own_vertices(self):
        rng = np.random.default_rng(0)
        pts = rng.random((40, 3))
        poly = convex_hull(pts)
        again = convex_hull(poly.vertices)
        a = {tuple(v) for v in np.round(poly.vertices, 12)}
        b = {tuple(v) for v in np.round(again.vertices, 12)}
        assert a == b


class TestConstraintValue:
    def test_centroid_is_strictly_inside(self):
        poly = convex_hull(CUBE)
        assert constraint_value(poly, poly.centroid) < 0.0

    def test_vertices_sit_on_the_boundary(self):
        poly = convex_hull(CUBE)
        for v in poly.vertices:
            assert abs(constraint_value(poly, v)) <= 1e-9

    def test_outside_point_is_positive(self):
        poly = convex_hull(CUBE)
        assert constraint_value(poly, [2.0, 0.5, 0.5]) > 0.0
        assert not contains(poly, [2.0, 0.5, 0.5])

    def test_h_is_distance_to_face_for_axis_aligned_cube(self):
        poly = convex_hull(CUBE)
        # 0.3 outside the x=1 face: the largest plane violation is exactly 0.3
        assert constraint_value(poly, [1.3, 0.5, 0.5]) == pytest.approx(0.3, abs=1e-12)
        # inside, 0.1 behind the nearest face
        assert constraint_value(poly, [0.9, 0.5, 0.5]) == pytest.approx(-0.1, abs=1e-12)

    def test_step_along_outward_normal_leaves_the_region(self):
        rng = np.random.default_rng(1)
        poly = convex_hull(rng.random((30, 3)))
        for anchor, normal in zip(poly.anchors, poly.normals):
            outside = poly.vertices[anchor] - 0.1 * normal
            assert constraint_value(poly, outside) >= 0.1 - 1e-9

    def test_all_input_points_inside_unshrunk_hull(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(0.0, 1.0, (100, 3))
        poly = convex_hull(pts)
        for p in pts:
            assert constraint_value(poly, p) <= 1e-9

    def test_agrees_with_linear_program_membership(self):
        rng = np.random.default_rng(3)
        pts = rng.random((8, 3)) * 2.0
        poly = convex_hull(pts)
        hull_pts = poly.vertices
        disagreements = 0
        for _ in range(200):
            x = rng.random(3) * 2.0
            if contains(poly, x) != in_hull_oracle(hull_pts, x):
                disagreements += 1
        assert disagreements == 0

    def test_one_lipschitz(self):
        rng = np.random.default_rng(4)
        poly = convex_hull(rng.random((20, 3)))
        for _ in range(200):
            a = rng.normal(0, 1, 3)
            b = a + rng.normal(0, 0.2, 3)
            gap = abs(constraint_value(poly, a) - constraint_value(poly, b))
            assert gap <= np.linalg.norm(a - b) + 1e-12


# Hulls of random integer lattice points. Membership queries lie on a
# quarter lattice of the same span, or on the ray from the centroid through a
# vertex, just inside or just outside it. The LP runs in lattice units, so its
# feasibility tolerance does not shrink with the hull.
LATTICE_POINTS = st.lists(st.tuples(*[st.integers(-8, 8)] * 3), min_size=4, max_size=12,
                          unique=True)
COORDS = st.tuples(*[st.floats(-12.0, 12.0)] * 3)


def lattice_hull(points, scale, gamma=1.0):
    try:
        return convex_hull(np.array(points, dtype=float) * scale, gamma)
    except DegenerateGeometryError:
        assume(False)


class TestConstraintValueProperties:
    @settings(max_examples=80, deadline=None)
    @given(points=LATTICE_POINTS, scale=st.floats(0.01, 4.0), x=COORDS, step=COORDS,
           reach=st.sampled_from([1e-6, 1e-2, 1.0]))
    def test_one_lipschitz_on_any_hull(self, points, scale, x, step, reach):
        poly = lattice_hull(points, scale)
        a = np.array(x) * scale
        b = a + np.array(step) * scale * reach
        gap = abs(constraint_value(poly, a) - constraint_value(poly, b))
        assert gap <= np.linalg.norm(a - b) + 1e-12

    @settings(max_examples=120, deadline=None)
    @given(points=LATTICE_POINTS, scale=st.floats(0.01, 100.0),
           x=st.tuples(*[st.integers(-40, 40)] * 3), vertex=st.integers(0, 11),
           stretch=st.sampled_from([None, 0.9, 0.999, 0.9999, 1.0001, 1.001, 1.1]))
    def test_contains_agrees_with_linear_program_off_the_boundary(
            self, points, scale, x, vertex, stretch):
        poly = lattice_hull(points, scale)
        if stretch is None:
            query = np.array(x, dtype=float) / 4.0 * scale
        else:
            corner = poly.vertices[vertex % len(poly.vertices)]
            query = poly.centroid + stretch * (corner - poly.centroid)
        assume(abs(constraint_value(poly, query)) > 1e-9)
        assert contains(poly, query) == in_hull_oracle(poly.vertices / scale, query / scale)


def reference_convex_hull(pts, gamma=1.0):
    """The hull one simplex at a time: (vertices, faces, normals, anchors)."""
    hull = ConvexHull(pts)
    vertex_ids = [int(i) for i in hull.vertices]
    position = {orig: pos for pos, orig in enumerate(vertex_ids)}
    vertices = pts[vertex_ids]
    centroid = vertices.mean(axis=0)
    shrunk = centroid + gamma * (vertices - centroid)
    shrunk_centroid = shrunk.mean(axis=0)
    faces, normals = [], []
    for simplex in hull.simplices:
        ids = [position[int(i)] for i in simplex]
        v0, v1, v2 = (shrunk[i] for i in ids)
        normal = np.cross(v1 - v0, v2 - v0)
        normal = normal / np.linalg.norm(normal)
        if np.dot(shrunk_centroid - v0, normal) < 0.0:
            normal = -normal
        faces.append(ids)
        normals.append(normal)
    faces = np.array(faces)
    return shrunk, faces, np.array(normals), faces[:, 0]


def reference_constraint_value(poly, p) -> float:
    """The largest depth behind a face plane, one np.dot per face."""
    x = p.as_array() if isinstance(p, GaitParameter) else np.asarray(p, dtype=float)
    best = -np.inf
    for anchor, normal in zip(poly.anchors, poly.normals):
        best = max(best, float(np.dot(poly.vertices[anchor] - x, normal)))
    return best


# Hulls of random real points of any spread, and queries drawn around them.
REAL_POINTS = st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=4, max_size=40)


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(points=REAL_POINTS, scale=st.floats(1e-3, 1e3), shift=st.floats(-5.0, 5.0),
           gamma=st.floats(0.05, 1.0))
    def test_hull_arrays_equal_the_per_simplex_hull(self, points, scale, shift, gamma):
        pts = np.array(points) * scale + shift
        poly = lattice_hull(pts, 1.0, gamma)
        want = reference_convex_hull(pts, gamma)
        for got, expected in zip((poly.vertices, poly.faces, poly.normals, poly.anchors), want):
            assert got.dtype.kind == expected.dtype.kind
            np.testing.assert_array_equal(got, expected)

    @settings(max_examples=80, deadline=None)
    @given(points=REAL_POINTS, scale=st.floats(1e-3, 1e3), gamma=st.floats(0.05, 1.0),
           weights=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           far=COORDS, reach=st.sampled_from([1.0, 1e3, 1e6]))
    def test_h_equals_the_per_face_loop(self, points, scale, gamma, weights, far, reach):
        poly = lattice_hull(np.array(points) * scale, 1.0, gamma)
        w = np.array(weights) + 1e-3
        on_faces = [(w / w.sum()) @ poly.vertices[face] for face in poly.faces]
        queries = (list(poly.vertices) + on_faces + [np.array(far) * scale * reach]
                   + [GaitParameter(*np.abs(v) + 0.1) for v in poly.vertices])
        for x in queries:
            assert constraint_value(poly, x) == reference_constraint_value(poly, x)

    @settings(max_examples=80, deadline=None)
    @given(points=REAL_POINTS, scale=st.floats(1e-3, 1e3), gamma=st.floats(0.05, 1.0),
           queries=st.lists(COORDS, min_size=1, max_size=20))
    def test_stacked_h_equals_each_point_alone(self, points, scale, gamma, queries):
        poly = lattice_hull(np.array(points) * scale, 1.0, gamma)
        xs = np.array(queries) * scale
        got = safeset._constraint_values(poly, xs)
        assert got.shape == (len(xs),)
        assert got.tolist() == [reference_constraint_value(poly, x) for x in xs]


class TestShrink:
    def test_gamma_scales_vertices_about_centroid(self):
        poly = convex_hull(CUBE, gamma=0.9)
        assert poly.gamma == 0.9
        centroid = CUBE.mean(axis=0)
        expected = {tuple(np.round(centroid + 0.9 * (v - centroid), 12)) for v in CUBE}
        got = {tuple(v) for v in np.round(poly.vertices, 12)}
        assert got == expected

    def test_shrunk_region_is_a_strict_subset(self):
        full = convex_hull(CUBE, gamma=1.0)
        shrunk = convex_hull(CUBE, gamma=0.8)
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.random(3)
            if contains(shrunk, x):
                assert contains(full, x)
        # old boundary vertices fall outside the shrunk region
        assert not contains(shrunk, [0.0, 0.0, 0.0])

    def test_gamma_bounds(self):
        poly = convex_hull(CUBE)
        with pytest.raises(ValueError):
            SafePolyhedron(poly.vertices, poly.faces, poly.normals, poly.anchors, 0.0)
        with pytest.raises(ValueError):
            SafePolyhedron(poly.vertices, poly.faces, poly.normals, poly.anchors, 1.2)


class TestPolyhedronValidation:
    def test_rejects_flipped_normal(self):
        poly = convex_hull(TETRA)
        normals = poly.normals.copy()
        normals[0] = -normals[0]
        with pytest.raises(ValueError, match="centroid"):
            SafePolyhedron(poly.vertices, poly.faces, normals, poly.anchors, poly.gamma)

    def test_rejects_vertex_past_a_face_plane(self):
        poly = convex_hull(CUBE)
        vertices = poly.vertices.copy()
        corner = int(np.flatnonzero(np.all(vertices == 0.0, axis=1))[0])
        vertices[corner, 0] = -0.01  # behind the planes of the x = 0 faces
        with pytest.raises(ValueError, match="a vertex violates the face planes by 1.000e-02"):
            SafePolyhedron(vertices, poly.faces, poly.normals, poly.anchors, poly.gamma)

    def test_rejects_non_unit_normal(self):
        poly = convex_hull(TETRA)
        normals = poly.normals.copy()
        normals[0] = [0.5, 0.5, 0.5]
        with pytest.raises(ValueError, match="unit length"):
            SafePolyhedron(poly.vertices, poly.faces, normals, poly.anchors, poly.gamma)

    @pytest.mark.parametrize("name", ["faces", "anchors"])
    def test_rejects_fractional_index_array(self, name):
        poly = convex_hull(TETRA)
        arrays = {"faces": poly.faces, "anchors": poly.anchors}
        arrays[name] = arrays[name] + 0.25
        with pytest.raises(ValueError, match=f"{name} must be whole-number"):
            SafePolyhedron(poly.vertices, arrays["faces"], poly.normals, arrays["anchors"],
                           poly.gamma)

    def test_rejects_out_of_range_vertex_index(self):
        poly = convex_hull(TETRA)
        faces = poly.faces.copy()
        faces[0] = (0, 1, 9)
        anchors = poly.anchors.copy()
        anchors[0] = 0
        with pytest.raises(ValueError, match="outside the vertex list"):
            SafePolyhedron(poly.vertices, faces, poly.normals, anchors, poly.gamma)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("text", [None, "{", "[1, 2"], ids=["missing", "brace", "list"])
    def test_unreadable_file_is_configuration_error(self, tmp_path, text):
        path = tmp_path / "safeset.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigurationError, match="safe set"):
            load_polyhedron(path)

    @pytest.mark.parametrize("gamma", [True, "0.9", None, 10**400],
                             ids=["true", "str", "null", "huge"])
    def test_document_gamma_must_be_a_number(self, gamma):
        doc = polyhedron_to_json_dict(convex_hull(TETRA))
        doc["gamma"] = gamma
        with pytest.raises(ConfigurationError, match="malformed safe-set document: gamma"):
            polyhedron_from_json_dict(doc)

    def test_round_trip_preserves_geometry(self, tmp_path):
        rng = np.random.default_rng(6)
        poly = convex_hull(rng.random((25, 3)), gamma=0.9)
        path = tmp_path / "safeset.json"
        save_polyhedron(poly, path)
        loaded = load_polyhedron(path)
        np.testing.assert_allclose(loaded.vertices, poly.vertices, atol=0)
        assert loaded.gamma == poly.gamma
        assert len(loaded.faces) == len(poly.faces)
        for _ in range(50):
            x = rng.random(3)
            assert constraint_value(loaded, x) == pytest.approx(
                constraint_value(poly, x), abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(points=st.lists(st.tuples(*[st.integers(-8, 8)] * 3), min_size=4, max_size=12,
                           unique=True),
           scale=st.floats(0.01, 100.0), gamma=st.floats(0.05, 1.0))
    def test_any_hull_round_trips(self, points, scale, gamma):
        try:
            poly = convex_hull(np.array(points, dtype=float) * scale, gamma=gamma)
        except DegenerateGeometryError:
            assume(False)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "safeset.json")
            save_polyhedron(poly, path)
            loaded = load_polyhedron(path)
        np.testing.assert_array_equal(loaded.vertices, poly.vertices)
        assert loaded.gamma == poly.gamma
        assert len(loaded.faces) == len(poly.faces)
        for name in ("faces", "anchors", "normals"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(poly, name))

    def test_rejects_malformed_document(self):
        with pytest.raises(ConfigurationError):
            polyhedron_from_json_dict({"vertices": [[0, 0, 0]]})

    @pytest.mark.parametrize("edit", [
        {"faces": []},
        {"gamma": 1.5},
        {"vertices": [[0.0, 0.0, float("nan")]] * 4},
    ])
    def test_rejects_invalid_polyhedron_as_configuration_error(self, edit):
        doc = polyhedron_to_json_dict(convex_hull(TETRA))
        doc.update(edit)
        with pytest.raises(ConfigurationError, match="malformed safe-set document"):
            polyhedron_from_json_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("n", [float("nan"), 0.0, 0.0]),  # once loaded, and h then skipped the face
        ("n", [float("inf"), 0.0, 0.0]),
        ("n", [1.0, 0.0]),
        ("v", [0, 1, float("inf")]),
        ("v", [0, 1, 10**30]),
        ("v", [0, 1]),
        ("anchor", float("nan")),
    ])
    def test_rejects_bad_face_as_configuration_error(self, field, value):
        doc = polyhedron_to_json_dict(convex_hull(TETRA))
        doc["faces"][0][field] = value
        with pytest.raises(ConfigurationError, match="malformed safe-set document"):
            polyhedron_from_json_dict(doc)

    @staticmethod
    def face_through_vertex_1(doc) -> dict:
        return next(f for f in doc["faces"] if 1 in f["v"])

    @pytest.mark.parametrize("field, value", [("v", 1.7), ("v", True), ("anchor", 1.7),
                                              ("anchor", True)])
    def test_rejects_fractional_or_boolean_index(self, field, value):
        # each truncates to vertex 1, which the face already holds
        doc = polyhedron_to_json_dict(convex_hull(TETRA))
        face = self.face_through_vertex_1(doc)
        if field == "v":
            face["v"] = [value if v == 1 else v for v in face["v"]]
        else:
            face["anchor"] = value
        with pytest.raises(ConfigurationError, match="whole-number vertex indices"):
            polyhedron_from_json_dict(doc)

    def test_whole_number_float_index_loads(self):
        poly = convex_hull(TETRA)
        doc = polyhedron_to_json_dict(poly)
        face = self.face_through_vertex_1(doc)
        face["v"] = [float(v) for v in face["v"]]
        face["anchor"] = float(face["anchor"])
        loaded = polyhedron_from_json_dict(doc)
        for name in ("faces", "anchors"):
            assert getattr(loaded, name).dtype.kind == "i"
            np.testing.assert_array_equal(getattr(loaded, name), getattr(poly, name))

    def test_dict_shape(self):
        poly = convex_hull(TETRA)
        doc = polyhedron_to_json_dict(poly)
        assert set(doc) == {"gamma", "vertices", "faces"}
        assert all(set(f) == {"v", "n", "anchor"} for f in doc["faces"])
        json.dumps(doc)


def firm_table():
    return GainTable.constant(
        ControlParams([2.0, 2.0, 2.0], [0.5, 0.5, 0.5], np.zeros(3)))


def varied_table():
    """Random gains per node, too stiff to stay up near vx = 0.8."""
    values = np.zeros((3, 2, 2, 9))
    values[..., :6] = np.random.default_rng(3).uniform(0.0, [3.0] * 3 + [1.5] * 3,
                                                       size=(3, 2, 2, 6))
    values[2, :, :, :6] = [20.0] * 3 + [0.0] * 3
    return GainTable((-0.8, 0.0, 0.8), (-0.3, 0.3), (0.8, 1.0), values)


def stats_bytes(result):
    return [tuple(rows[i].tobytes() for rows in (result.p_c, result.p_c_min, result.p_c_max))
            for i in range(len(result.feasible_commands))]


class TestSweep:
    GRID = (
        GaitParameter(0.0, 0.0, 1.0),
        GaitParameter(0.2, 0.0, 1.0),
        GaitParameter(0.0, 0.2, 0.9),
    )

    def test_firm_gains_complete_the_sweep(self):
        result = sweep_commands(firm_table(), sim_config(), self.GRID, SeedSpec(0))
        assert result.grid == self.GRID
        assert len(result.feasible_commands) == len(result.safe_points)
        assert GaitParameter(0.0, 0.0, 1.0) in result.feasible_commands

    def test_converged_points_near_commands(self):
        result = sweep_commands(firm_table(), sim_config(), self.GRID, SeedSpec(0))
        for cmd, pt in zip(result.feasible_commands, result.safe_points):
            assert abs(pt.h - cmd.h) < 0.25

    def test_zero_gain_table_falls(self):
        table = GainTable.constant(ControlParams(np.zeros(3), np.zeros(3), np.zeros(3)))
        grid = (GaitParameter(0.5, 0.5, 1.0),)
        result = sweep_commands(table, sim_config(), grid, SeedSpec(0))
        assert result.feasible_commands == ()
        assert result.safe_points == ()

    def test_deterministic_per_seed(self):
        a = sweep_commands(firm_table(), sim_config(), self.GRID, SeedSpec(3))
        b = sweep_commands(firm_table(), sim_config(), self.GRID, SeedSpec(3))
        assert a.feasible_commands == b.feasible_commands
        for pa, pb in zip(a.safe_points, b.safe_points):
            np.testing.assert_array_equal(pa.as_array(), pb.as_array())

    def test_chunking_does_not_change_results(self, monkeypatch):
        whole = sweep_commands(firm_table(), sim_config(), self.GRID, SeedSpec(1))
        monkeypatch.setattr(safeset, "_SWEEP_CHUNK", 2)
        chunked = sweep_commands(firm_table(), sim_config(), self.GRID, SeedSpec(1))
        assert whole.feasible_commands == chunked.feasible_commands
        assert stats_bytes(whole) == stats_bytes(chunked)

    @pytest.mark.parametrize("plant", [sim_config, real_config])
    def test_grid_across_a_chunk_boundary_matches_single_episodes(self, plant):
        # More commands than one chunk holds, some converging and some falling;
        # each verdict and converged statistic must equal its episode run alone.
        cfg = plant()
        grid = tuple(GaitParameter(vx, vy, h)
                     for vx in np.linspace(-0.8, 0.8, 9)
                     for vy in (-0.3, 0.0, 0.3) for h in np.linspace(0.8, 1.0, 5))
        assert len(grid) > safeset._SWEEP_CHUNK
        seed = SeedSpec(8)
        result = sweep_commands(varied_table(), cfg, grid, seed)
        expected = []
        for k, cmd in enumerate(grid):
            traj = run_episode(cfg, varied_table(), learning_profile(cmd),
                               stepping_start(cmd), seed.derive(k))
            if not traj.fell:
                expected.append((cmd, converged_stats(traj)))
        assert 0 < len(expected) < len(grid)
        assert result.feasible_commands == tuple(cmd for cmd, _ in expected)
        assert result.grid == grid
        assert stats_bytes(result) == [
            tuple(p.as_array().tobytes() for p in (s.p_c, s.p_c_min, s.p_c_max))
            for _, s in expected]

    def test_fallen_chunk_does_not_check_the_segment(self, monkeypatch):
        # The segment only has to fit in the trajectories of completed runs:
        # a chunk in which every episode falls never checks it.
        zero = GainTable.constant(ControlParams(np.zeros(3), np.zeros(3), np.zeros(3)))
        monkeypatch.setattr(safeset, "_SWEEP_CHUNK", 2)
        result = sweep_commands(zero, sim_config(), self.GRID, SeedSpec(0),
                                segment_duration=100.0)
        assert result.feasible_commands == () and result.p_c.shape == (0, 3)
        with pytest.raises(ConfigurationError, match="needs 250 samples"):
            sweep_commands(firm_table(), sim_config(), self.GRID, SeedSpec(0),
                           segment_duration=100.0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), True])
    def test_segment_duration_must_be_a_positive_finite_number(self, duration):
        with pytest.raises(ConfigurationError, match="segment_duration must be"):
            sweep_commands(firm_table(), sim_config(), self.GRID, SeedSpec(0),
                           segment_duration=duration)

    def test_no_stats_object_per_completed_episode(self, monkeypatch):
        # A completed run costs no more ConvergedStats or GaitParameter than a
        # fallen one: the same grid builds as many under either table.
        built = []
        for cls in (ConvergedStats, GaitParameter):
            init = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=init, _cls=cls:
                                built.append(_cls) or _init(self, *args))
        zero = GainTable.constant(ControlParams(np.zeros(3), np.zeros(3), np.zeros(3)))
        counts = []
        for table in (firm_table(), zero):
            built.clear()
            result = sweep_commands(table, sim_config(), self.GRID, SeedSpec(0))
            counts.append((len(result.feasible_commands), built.count(ConvergedStats),
                           built.count(GaitParameter)))
        (done, stats_done, gaits_done), (fallen, stats_fallen, gaits_fallen) = counts
        assert done == len(self.GRID) and fallen == 0
        assert stats_done == stats_fallen == 0
        assert gaits_done == gaits_fallen

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_commands(firm_table(), sim_config(), (), SeedSpec(0))

    def test_non_command_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_commands(firm_table(), sim_config(), (np.array([0, 0, 1.0]),),
                           SeedSpec(0))


class TestSweepResult:
    GRID = TestSweep.GRID

    def test_arrays_are_read_only(self):
        result = sweep_commands(firm_table(), sim_config(), self.GRID, SeedSpec(0))
        for rows in (result.p_c, result.p_c_min, result.p_c_max):
            assert rows.shape == (len(result.feasible_commands), 3)
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0

    def test_given_arrays_are_copied(self):
        rows = np.array([[0.1, 0.0, 1.0]])
        result = SweepResult((GaitParameter(0.1, 0.0, 1.0),), self.GRID, rows, rows, rows)
        rows[0, 0] = 9.0
        assert result.p_c[0, 0] == 0.1

    @pytest.mark.parametrize("count", [0, 2])
    def test_rows_must_pair_up_with_feasible_commands(self, count):
        rows = np.ones((count, 3))
        with pytest.raises(ValueError, match="p_c must have shape"):
            SweepResult((GaitParameter(0.1, 0.0, 1.0),), self.GRID, rows, rows, rows)

    def test_all_fallen_sweep_has_no_rows(self):
        zero = GainTable.constant(ControlParams(np.zeros(3), np.zeros(3), np.zeros(3)))
        result = sweep_commands(zero, sim_config(), self.GRID, SeedSpec(0))
        assert result.feasible_commands == ()
        for rows in (result.p_c, result.p_c_min, result.p_c_max):
            assert rows.shape == (0, 3)
        assert result.safe_points == ()

    def test_safe_points_are_the_means(self):
        result = sweep_commands(firm_table(), sim_config(), self.GRID, SeedSpec(0))
        assert [p.as_array().tobytes() for p in result.safe_points] == [
            row.tobytes() for row in result.p_c]
