"""Gain scheduling: a dense lookup table over a 3-D gait-parameter grid.

Controller parameters live at grid nodes; queries between nodes are blended
trilinearly and queries outside the grid are clamped to the boundary. Axes
with a single node degenerate gracefully to constants along that axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .domain import ControlParams, Correction, GaitParameter, apply_correction
from .errors import ConfigurationError, GridNodeError

__all__ = [
    "GainTable",
    "lookup",
    "upsert",
    "apply_corrections",
    "table_to_json_dict",
    "table_from_json_dict",
    "save_table",
    "load_table",
]

_AXIS_NAMES = ("vx", "vy", "h")
_NODE_TOL = 1e-9


def _axis_nodes(values, name: str) -> tuple[float, ...]:
    nodes = tuple(float(v) for v in values)
    if not nodes:
        raise ValueError(f"axis {name} needs at least one node")
    if not all(np.isfinite(nodes)):
        raise ValueError(f"axis {name} nodes must be finite")
    for a, b in zip(nodes, nodes[1:]):
        if b <= a:
            raise ValueError(f"axis {name} nodes must increase strictly ({a} then {b})")
    return nodes


@dataclass(frozen=True)
class GainTable:
    """Controller parameters on a dense (vx, vy, h) grid.

    values has shape (n_vx, n_vy, n_h, 9); the trailing axis packs
    [kP, kD, deltaP] as in ControlParams.as_vector().
    """

    vx_nodes: tuple
    vy_nodes: tuple
    h_nodes: tuple
    values: np.ndarray

    def __post_init__(self):
        vx = _axis_nodes(self.vx_nodes, "vx")
        vy = _axis_nodes(self.vy_nodes, "vy")
        h = _axis_nodes(self.h_nodes, "h")
        values = np.array(self.values, dtype=float)
        expected = (len(vx), len(vy), len(h), 9)
        if values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("table values must be finite")
        if np.any(values[..., 0:6] < 0.0):
            raise ValueError("table gains must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "vx_nodes", vx)
        object.__setattr__(self, "vy_nodes", vy)
        object.__setattr__(self, "h_nodes", h)
        object.__setattr__(self, "values", values)

    @property
    def axes(self) -> tuple[tuple, tuple, tuple]:
        return (self.vx_nodes, self.vy_nodes, self.h_nodes)

    @property
    def n_nodes(self) -> int:
        return len(self.vx_nodes) * len(self.vy_nodes) * len(self.h_nodes)

    def node_params(self, i: int, j: int, k: int) -> ControlParams:
        return ControlParams.from_vector(self.values[i, j, k])

    @classmethod
    def filled(cls, vx_nodes, vy_nodes, h_nodes, params: ControlParams) -> "GainTable":
        """A table holding the same parameters at every node."""
        vx = _axis_nodes(vx_nodes, "vx")
        vy = _axis_nodes(vy_nodes, "vy")
        h = _axis_nodes(h_nodes, "h")
        values = np.tile(params.as_vector(), (len(vx), len(vy), len(h), 1))
        return cls(vx, vy, h, values)

    @classmethod
    def constant(cls, params: ControlParams) -> "GainTable":
        """A single-node table: the same parameters for every query."""
        return cls.filled((0.0,), (0.0,), (1.0,), params)


def _axis_weights(nodes: tuple, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower node index and fractional weight of each clamped query on one axis."""
    if len(nodes) == 1:
        return np.zeros(q.shape, dtype=np.intp), np.zeros(q.shape)
    x = np.array(nodes)
    idx = np.clip(np.searchsorted(x, q, side="right") - 1, 0, len(nodes) - 2)
    x0, x1 = x[idx], x[idx + 1]
    inside = np.clip(q, x[0], x[-1])  # far outside a narrow cell the ratio would overflow
    return idx, np.where(q <= x[0], 0.0, np.where(q >= x[-1], 1.0, (inside - x0) / (x1 - x0)))


def _corners(idx: np.ndarray, w: np.ndarray, n_nodes: int):
    """(index, weight) of each cell corner along one axis; one on a single-node axis."""
    if n_nodes == 1:
        return ((idx, 1.0 - w),)
    return ((idx, 1.0 - w), (idx + 1, w))


def _interpolate(table: GainTable, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of node parameters at each (vx, vy, h) row of points.

    Queries outside the grid are clamped to it. Corners are summed in
    (i, j, k) order with weight (fx * fy) * fz; a zero-weight corner adds an
    exact zero, since the sum starts at +0.0 and the values are finite. So
    each row equals the row a lone query gives, bit for bit.
    """
    points = np.asarray(points, dtype=float)
    (i, wx), (j, wy), (k, wz) = (_axis_weights(nodes, points[:, axis])
                                 for axis, nodes in enumerate(table.axes))
    v = table.values
    out = np.zeros((points.shape[0], 9))
    for ii, fx in _corners(i, wx, len(table.vx_nodes)):
        for jj, fy in _corners(j, wy, len(table.vy_nodes)):
            fxy = fx * fy
            for kk, fz in _corners(k, wz, len(table.h_nodes)):
                out += (fxy * fz)[:, None] * v[ii, jj, kk]
    return out


def lookup(table: GainTable, p: GaitParameter) -> ControlParams:
    """Trilinear interpolation of node parameters, clamped outside the grid."""
    return ControlParams.from_vector(_interpolate(table, [[p.vx, p.vy, p.h]])[0])


def _node_index(nodes: tuple, q: float, axis: str) -> int:
    diffs = [abs(n - q) for n in nodes]
    idx = int(np.argmin(diffs))
    if not diffs[idx] <= _NODE_TOL:  # a NaN coordinate is off every node too
        raise GridNodeError(
            f"{axis}={q} is not a grid node (nearest node is {axis}={nodes[idx]})"
        )
    return idx


def _node_indices(axes: tuple, point) -> tuple[int, int, int]:
    """Grid indices (i, j, k) of a (vx, vy, h) point lying on the nodes of axes.

    Raises GridNodeError when any coordinate is farther than the node
    tolerance from every node of its axis.
    """
    return tuple(_node_index(nodes, float(q), name)
                 for nodes, q, name in zip(axes, point, _AXIS_NAMES))


def upsert(table: GainTable, p: GaitParameter, params: ControlParams) -> GainTable:
    """A new table with the node at p replaced. p must sit on the grid."""
    i, j, k = _node_indices(table.axes, (p.vx, p.vy, p.h))
    values = np.array(table.values)
    values[i, j, k] = params.as_vector()
    return GainTable(table.vx_nodes, table.vy_nodes, table.h_nodes, values)


def apply_corrections(table: GainTable, corrections) -> GainTable:
    """A new table with per-node corrections applied.

    corrections is an iterable of (GaitParameter, Correction); each gait
    parameter must sit on the grid.
    """
    out = table
    for p, corr in corrections:
        i, j, k = _node_indices(out.axes, (p.vx, p.vy, p.h))
        params = apply_correction(out.node_params(i, j, k), corr)
        out = upsert(out, p, params)
    return out


def table_to_json_dict(table: GainTable) -> dict:
    entries = []
    for i, vx in enumerate(table.vx_nodes):
        for j, vy in enumerate(table.vy_nodes):
            for k, h in enumerate(table.h_nodes):
                params = table.node_params(i, j, k)
                entries.append({
                    "p": [vx, vy, h],
                    "kP": [float(v) for v in params.kP],
                    "kD": [float(v) for v in params.kD],
                    "deltaP": [float(v) for v in params.deltaP],
                })
    return {
        "axes": {
            "vx": list(table.vx_nodes),
            "vy": list(table.vy_nodes),
            "h": list(table.h_nodes),
        },
        "entries": entries,
    }


def table_from_json_dict(data: dict) -> GainTable:
    try:
        axes = data["axes"]
        vx = _axis_nodes(axes["vx"], "vx")
        vy = _axis_nodes(axes["vy"], "vy")
        h = _axis_nodes(axes["h"], "h")
        entries = list(data["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed gain table document: {exc}") from exc
    values = np.zeros((len(vx), len(vy), len(h), 9))
    filled = np.zeros(values.shape[:3], dtype=bool)
    for entry in entries:
        try:
            p = [float(c) for c in entry["p"]]
            vec = np.concatenate([
                np.asarray(entry["kP"], dtype=float),
                np.asarray(entry["kD"], dtype=float),
                np.asarray(entry["deltaP"], dtype=float),
            ])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed gain table entry: {entry!r}") from exc
        if len(p) != 3 or vec.shape != (9,):
            raise ConfigurationError(f"gain table entry has wrong arity: {entry!r}")
        i, j, k = _node_indices((vx, vy, h), p)
        if filled[i, j, k]:
            raise ConfigurationError(f"duplicate gain table entry at p={p}")
        filled[i, j, k] = True
        values[i, j, k] = vec
    if not filled.all():
        missing = int((~filled).sum())
        raise ConfigurationError(f"gain table document is incomplete: {missing} nodes missing")
    try:
        return GainTable(vx, vy, h, values)
    except ValueError as exc:
        raise ConfigurationError(f"invalid gain table document: {exc}") from exc


def save_table(table: GainTable, path) -> None:
    with open(path, "w") as fh:
        json.dump(table_to_json_dict(table), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_table(path) -> GainTable:
    with open(path) as fh:
        return table_from_json_dict(json.load(fh))
