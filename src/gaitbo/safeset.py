"""Safe command set: feasibility sweep, convex hull, and the constraint value.

The sweep drives every candidate command through a tuned table and keeps the
ones that complete their episode, with where each converged: the mean, min and
max of its trailing segment from objective._segment_moments, the one
reduction. The means are hulled (optionally shrunk toward the centroid for
margin); the signed constraint value of a point is its largest inward-plane
violation, so h <= 0 means inside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .domain import GaitParameter, SeedSpec, _numbers, _read_json, _readonly_array, _real
from .errors import ConfigurationError, DegenerateGeometryError
from .objective import _learning_episodes, _learning_segments, _segment_moments
from .plant import PlantConfig
from .scheduler import GainTable

__all__ = [
    "SweepResult",
    "SafePolyhedron",
    "sweep_commands",
    "convex_hull",
    "constraint_value",
    "contains",
    "polyhedron_to_json_dict",
    "polyhedron_from_json_dict",
    "save_polyhedron",
    "load_polyhedron",
]

_UNIT_TOL = 1e-9
# Commands per batched rollout in a sweep; it bounds the episode arrays held
# at once. The full 1,053-command grid as one batch ran about a quarter
# faster but raised peak memory by 13.6 MB, against 1.6 MB at this size.
_SWEEP_CHUNK = 128


@dataclass(frozen=True)
class SweepResult:
    """Commands that completed their episode and where each run converged.

    Row i of p_c, p_c_min and p_c_max is the converged mean, componentwise
    min and componentwise max of feasible_commands[i]'s run, as read-only
    (m, 3) arrays; safe_points are the means as gait points.
    """

    feasible_commands: tuple
    grid: tuple
    p_c: np.ndarray
    p_c_min: np.ndarray
    p_c_max: np.ndarray

    def __post_init__(self):
        feasible = tuple(self.feasible_commands)
        object.__setattr__(self, "feasible_commands", feasible)
        object.__setattr__(self, "grid", tuple(self.grid))
        for name in ("p_c", "p_c_min", "p_c_max"):
            object.__setattr__(self, name,
                               _readonly_array(getattr(self, name), (len(feasible), 3), name))

    @property
    def safe_points(self) -> tuple:
        return tuple(GaitParameter(*row) for row in self.p_c.tolist())


def _plane_depths(anchor_points, normals, points) -> np.ndarray:
    """How far each point lies behind each face plane, shape (points, faces).

    The depth of point x behind face i is (anchor_points[i] - x) . normals[i],
    so it is positive outside that plane when the normal points inward. Each
    is one stacked 3-term product, which rounds as np.dot of the two vectors
    does, whatever the number of points asked at once.
    """
    gaps = anchor_points - np.asarray(points, dtype=float)[:, None, :]
    return np.matmul(gaps[..., None, :], normals[:, :, None])[..., 0, 0]


def _vertex_indices(values, name: str) -> np.ndarray:
    """values as an int array; ValueError for a boolean or fractional entry,
    which the cast to int alone would turn into an index."""
    indices = np.array(values, dtype=int)
    given = np.array(values, dtype=object).ravel().tolist()
    if any(isinstance(v, (bool, np.bool_)) or v != i
           for v, i in zip(given, indices.ravel().tolist())):
        raise ValueError(f"{name} must be whole-number vertex indices, not booleans or fractions")
    return indices


@dataclass(frozen=True)
class SafePolyhedron:
    """A convex safe region in gait-parameter space, held as face arrays.

    Face i is the triangle of vertex indices faces[i]. Its plane passes
    through vertex anchors[i], which is one of those three, and normals[i] is
    its inward unit normal.
    """

    vertices: np.ndarray
    faces: np.ndarray
    normals: np.ndarray
    anchors: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        vertices = np.array(self.vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 3 or vertices.shape[0] < 4:
            raise ValueError(
                f"polyhedron needs at least 4 vertices of dimension 3, got {vertices.shape}"
            )
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertices must be finite")
        faces = _vertex_indices(self.faces, "faces")
        normals = np.array(self.normals, dtype=float)
        anchors = _vertex_indices(self.anchors, "anchors")
        count = len(faces)
        if count < 4:
            raise ValueError(f"polyhedron needs at least 4 faces, got {count}")
        if faces.shape != (count, 3):
            raise ValueError(f"faces are triangles of vertex indices, got shape {faces.shape}")
        if normals.shape != (count, 3):
            raise ValueError(f"need one 3-vector normal per face, got shape {normals.shape}")
        if anchors.shape != (count,):
            raise ValueError(f"need one anchor per face, got shape {anchors.shape}")
        norms = np.linalg.norm(normals, axis=1)
        off = ~(abs(norms - 1.0) <= _UNIT_TOL)  # a NaN norm is off too
        if np.any(off):
            raise ValueError(f"face normal must have unit length, got {norms[off][0]}")
        if not np.all(np.any(faces == anchors[:, None], axis=1)):
            raise ValueError("anchor must be one of the face's vertices")
        outside = faces[(faces < 0) | (faces >= len(vertices))]
        if outside.size:
            raise ValueError(f"face references vertex {outside[0]} outside the vertex list")
        for array in (vertices, faces, normals, anchors):
            array.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma", 0.0, 1.0, "(]"))

        depths = _plane_depths(vertices[anchors], normals,
                               np.vstack([vertices.mean(axis=0), vertices]))
        if np.any(depths[0] >= 0.0):
            raise ValueError("every inward normal must point toward the centroid")
        worst = depths[1:].max()
        if worst > 1e-9:
            raise ValueError(f"a vertex violates the face planes by {worst:.3e}")

    @property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


def sweep_commands(table: GainTable, cfg: PlantConfig, grid, seed: SeedSpec,
                   segment_duration: float = 5.0) -> SweepResult:
    """Drive each grid command through an episode; keep those that complete.

    Every command gets its own derived noise stream, and the grid runs
    through the batched rollout a chunk at a time, so results do not depend
    on the chunking: each equals that command's episode run alone.
    """
    grid = tuple(grid)
    if not grid:
        raise ConfigurationError("sweep grid must not be empty")
    for cmd in grid:
        if not isinstance(cmd, GaitParameter):
            raise ConfigurationError(f"sweep grid entries must be GaitParameter, got {cmd!r}")

    feasible = []
    moments = []
    profiles, starts = _learning_episodes(grid)
    for first in range(0, len(grid), _SWEEP_CHUNK):
        part = slice(first, first + _SWEEP_CHUNK)
        chunk = grid[part]
        fell, segments = _learning_segments(
            cfg, (table,) * len(chunk), profiles[part], starts[part],
            [seed.derive(first + k) for k in range(len(chunk))], segment_duration)
        feasible.extend(cmd for cmd, down in zip(chunk, fell.tolist()) if not down)
        moments.append(_segment_moments(segments))
    return SweepResult(tuple(feasible), grid, *(np.concatenate(m) for m in zip(*moments)))


def convex_hull(points, gamma: float = 1.0) -> SafePolyhedron:
    """Hull of the given gait points, shrunk by gamma about the centroid.

    Accepts GaitParameter or raw 3-vectors. Raises if gamma is not in (0, 1],
    or the points are not finite, too few or do not span three dimensions.
    """
    gamma = _real(gamma, "gamma", 0.0, 1.0, "(]")
    pts = np.array([p.as_array() if isinstance(p, GaitParameter) else np.asarray(p, dtype=float)
                    for p in points])
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"hull points must be 3-vectors, got array shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("hull points must be finite")
    if pts.shape[0] < 4:
        raise DegenerateGeometryError(f"need at least 4 points for a solid hull, got {len(pts)}")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateGeometryError(f"points do not span a 3-D volume: {exc}") from exc

    position = np.empty(len(pts), dtype=int)
    position[hull.vertices] = np.arange(len(hull.vertices))
    faces = position[hull.simplices]
    vertices = pts[hull.vertices]
    centroid = vertices.mean(axis=0)
    shrunk = centroid + gamma * (vertices - centroid)

    corners = shrunk[faces]
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    norms = np.sqrt(np.matmul(normals[:, None, :], normals[:, :, None])[:, 0, 0])
    if np.any(norms <= 0.0):
        raise DegenerateGeometryError("hull produced a zero-area face")
    normals = normals / norms[:, None]
    # orient each normal toward the shrunk centroid, which lies behind no face
    behind = _plane_depths(corners[:, 0], normals, shrunk.mean(axis=0)[None])[0] > 0.0
    normals[behind] = -normals[behind]
    return SafePolyhedron(shrunk, faces, normals, faces[:, 0], gamma)


def _constraint_values(poly: SafePolyhedron, points) -> np.ndarray:
    """constraint_value of each of m points, (m, 3), as an (m,) array."""
    return _plane_depths(poly.vertices[poly.anchors], poly.normals, points).max(axis=1)


def constraint_value(poly: SafePolyhedron, p) -> float:
    """Signed violation of the safe region: h <= 0 inside, h > 0 outside.

    h is the largest signed distance behind any face plane, measured along
    that face's inward normal, so it is 1-Lipschitz in the query point.
    """
    x = p.as_array() if isinstance(p, GaitParameter) else np.asarray(p, dtype=float)
    if x.shape != (3,):
        raise ValueError(f"query point must be a 3-vector, got shape {x.shape}")
    return float(_constraint_values(poly, x[None])[0])


def contains(poly: SafePolyhedron, p) -> bool:
    """Whether the point lies inside (or on) the safe region."""
    return constraint_value(poly, p) <= 0.0


def polyhedron_to_json_dict(poly: SafePolyhedron) -> dict:
    return {
        "gamma": poly.gamma,
        "vertices": poly.vertices.tolist(),
        "faces": [{"v": v, "n": n, "anchor": a} for v, n, a in
                  zip(poly.faces.tolist(), poly.normals.tolist(), poly.anchors.tolist())],
    }


def polyhedron_from_json_dict(data: dict) -> SafePolyhedron:
    try:
        vertices = _numbers(data["vertices"], "safe-set vertex coordinate")
        faces = data["faces"]
        return SafePolyhedron(vertices, [f["v"] for f in faces],
                              [_numbers(f["n"], "safe-set face normal") for f in faces],
                              [f["anchor"] for f in faces], data["gamma"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed safe-set document: {exc}") from exc


def save_polyhedron(poly: SafePolyhedron, path) -> None:
    with open(path, "w") as fh:
        json.dump(polyhedron_to_json_dict(poly), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_polyhedron(path) -> SafePolyhedron:
    return polyhedron_from_json_dict(_read_json(path, "safe set"))
