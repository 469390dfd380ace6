"""Safe command set: feasibility sweep, convex hull, and the constraint value.

The sweep drives every candidate command through a tuned table and keeps the
ones that complete their episode. The converged gait points of those runs
are hulled (optionally shrunk toward the centroid for margin); the signed
constraint value of a point is its largest inward-plane violation, so h <= 0
means inside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .domain import GaitParameter, SeedSpec
from .errors import ConfigurationError, DegenerateGeometryError
from .objective import converged_stats
from .plant import PlantConfig, learning_profile, run_episodes, stepping_start
from .scheduler import GainTable

__all__ = [
    "SweepResult",
    "Face",
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

    stats holds the full converged statistics of each feasible run, in the
    same order as feasible_commands; safe_points are their means.
    """

    feasible_commands: tuple
    safe_points: tuple
    grid: tuple
    stats: tuple = ()

    def __post_init__(self):
        feasible = tuple(self.feasible_commands)
        safe = tuple(self.safe_points)
        grid = tuple(self.grid)
        stats = tuple(self.stats)
        if len(feasible) != len(safe):
            raise ValueError("feasible commands and safe points must pair up")
        if stats and len(stats) != len(feasible):
            raise ValueError("converged stats must pair up with feasible commands")
        object.__setattr__(self, "feasible_commands", feasible)
        object.__setattr__(self, "safe_points", safe)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "stats", stats)


@dataclass(frozen=True)
class Face:
    """A triangulated hull face: vertex indices, inward unit normal, anchor."""

    vertex_indices: tuple
    inward_normal: np.ndarray
    anchor_index: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.vertex_indices)
        if len(idx) != 3:
            raise ValueError(f"faces are triangles, got {len(idx)} vertices")
        normal = np.array(self.inward_normal, dtype=float)
        if normal.shape != (3,):
            raise ValueError("face normal must be a 3-vector")
        if abs(np.linalg.norm(normal) - 1.0) > _UNIT_TOL:
            raise ValueError(f"face normal must have unit length, got {np.linalg.norm(normal)}")
        normal.setflags(write=False)
        object.__setattr__(self, "vertex_indices", idx)
        object.__setattr__(self, "inward_normal", normal)
        object.__setattr__(self, "anchor_index", int(self.anchor_index))
        if self.anchor_index not in idx:
            raise ValueError("anchor must be one of the face's vertices")


@dataclass(frozen=True)
class SafePolyhedron:
    """A convex safe region in gait-parameter space."""

    vertices: np.ndarray
    faces: tuple
    gamma: float = 1.0

    def __post_init__(self):
        vertices = np.array(self.vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 3 or vertices.shape[0] < 4:
            raise ValueError(
                f"polyhedron needs at least 4 vertices of dimension 3, got {vertices.shape}"
            )
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertices must be finite")
        faces = tuple(self.faces)
        if len(faces) < 4:
            raise ValueError(f"polyhedron needs at least 4 faces, got {len(faces)}")
        if not (0.0 < float(self.gamma) <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        vertices.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "gamma", float(self.gamma))

        for face in faces:
            for i in face.vertex_indices:
                if not (0 <= i < vertices.shape[0]):
                    raise ValueError(f"face references vertex {i} outside the vertex list")

        centroid = vertices.mean(axis=0)
        anchors = vertices[[face.anchor_index for face in faces]]
        normals = np.array([face.inward_normal for face in faces])
        if np.any(np.sum((centroid - anchors) * normals, axis=1) <= 0.0):
            raise ValueError("every inward normal must point toward the centroid")
        # the farthest any vertex lies behind any face plane
        worst = np.sum((anchors - vertices[:, None, :]) * normals, axis=2).max()
        if worst > 1e-9:
            raise ValueError(f"a vertex violates the face planes by {worst:.3e}")
        if np.sum((anchors - centroid) * normals, axis=1).max() >= 0.0:
            raise ValueError("the centroid must lie strictly inside the polyhedron")

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

    # A stepping start depends on the height alone: one per height.
    starts = {}
    for cmd in grid:
        if cmd.h not in starts:
            starts[cmd.h] = stepping_start(cmd)
    feasible = []
    safe = []
    kept = []
    for first in range(0, len(grid), _SWEEP_CHUNK):
        chunk = grid[first:first + _SWEEP_CHUNK]
        trajectories = run_episodes(
            cfg, (table,) * len(chunk),
            [learning_profile(cmd) for cmd in chunk],
            [starts[cmd.h] for cmd in chunk],
            [seed.derive(first + k) for k in range(len(chunk))],
        )
        for cmd, traj in zip(chunk, trajectories):
            if not traj.fell:
                stats = converged_stats(traj, segment_duration)
                feasible.append(cmd)
                safe.append(stats.p_c)
                kept.append(stats)
    return SweepResult(tuple(feasible), tuple(safe), grid, tuple(kept))


def convex_hull(points, gamma: float = 1.0) -> SafePolyhedron:
    """Hull of the given gait points, shrunk by gamma about the centroid.

    Accepts GaitParameter or raw 3-vectors. Raises if the points are too few
    or do not span three dimensions.
    """
    pts = np.array([
        p.as_array() if isinstance(p, GaitParameter) else np.asarray(p, dtype=float)
        for p in points
    ])
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"hull points must be 3-vectors, got array shape {pts.shape}")
    if pts.shape[0] < 4:
        raise DegenerateGeometryError(
            f"need at least 4 points for a solid hull, got {pts.shape[0]}"
        )
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateGeometryError(
            f"points do not span a 3-D volume: {exc}"
        ) from exc

    vertex_ids = [int(i) for i in hull.vertices]
    position = {orig: pos for pos, orig in enumerate(vertex_ids)}
    vertices = pts[vertex_ids]
    centroid = vertices.mean(axis=0)
    shrunk = centroid + gamma * (vertices - centroid)
    shrunk_centroid = shrunk.mean(axis=0)

    faces = []
    for simplex in hull.simplices:
        ids = tuple(position[int(i)] for i in simplex)
        v0, v1, v2 = (shrunk[i] for i in ids)
        normal = np.cross(v1 - v0, v2 - v0)
        norm = np.linalg.norm(normal)
        if norm <= 0.0:
            raise DegenerateGeometryError("hull produced a zero-area face")
        normal = normal / norm
        if np.dot(shrunk_centroid - v0, normal) < 0.0:
            normal = -normal
        faces.append(Face(ids, normal, ids[0]))

    return SafePolyhedron(shrunk, tuple(faces), gamma)


def constraint_value(poly: SafePolyhedron, p) -> float:
    """Signed violation of the safe region: h <= 0 inside, h > 0 outside.

    h is the largest signed distance behind any face plane, measured along
    that face's inward normal, so it is 1-Lipschitz in the query point.
    """
    x = p.as_array() if isinstance(p, GaitParameter) else np.asarray(p, dtype=float)
    if x.shape != (3,):
        raise ValueError(f"query point must be a 3-vector, got shape {x.shape}")
    best = -np.inf
    for face in poly.faces:
        anchor = poly.vertices[face.anchor_index]
        best = max(best, float(np.dot(anchor - x, face.inward_normal)))
    return best


def contains(poly: SafePolyhedron, p) -> bool:
    """Whether the point lies inside (or on) the safe region."""
    return constraint_value(poly, p) <= 0.0


def polyhedron_to_json_dict(poly: SafePolyhedron) -> dict:
    return {
        "gamma": float(poly.gamma),
        "vertices": [[float(c) for c in v] for v in poly.vertices],
        "faces": [
            {
                "v": list(face.vertex_indices),
                "n": [float(c) for c in face.inward_normal],
                "anchor": int(face.anchor_index),
            }
            for face in poly.faces
        ],
    }


def polyhedron_from_json_dict(data: dict) -> SafePolyhedron:
    try:
        gamma = float(data["gamma"])
        vertices = np.asarray(data["vertices"], dtype=float)
        faces = tuple(
            Face(tuple(f["v"]), np.asarray(f["n"], dtype=float), int(f["anchor"]))
            for f in data["faces"]
        )
        return SafePolyhedron(vertices, faces, gamma)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed safe-set document: {exc}") from exc


def save_polyhedron(poly: SafePolyhedron, path) -> None:
    with open(path, "w") as fh:
        json.dump(polyhedron_to_json_dict(poly), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_polyhedron(path) -> SafePolyhedron:
    with open(path) as fh:
        return polyhedron_from_json_dict(json.load(fh))
