"""Gain scheduling: a dense lookup table over a 3-D gait-parameter grid.

Controller parameters live at grid nodes; queries between nodes are blended
trilinearly and queries outside the grid are clamped to the boundary. Axes
with a single node degenerate gracefully to constants along that axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .domain import (ControlParams, GaitParameter, _array, _items, _number, _numbers,
                     _read_json, _real, apply_correction)
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


def _axis_nodes(values, name: str, low: float = -math.inf) -> tuple[float, ...]:
    """values as a tuple of finite floats above low, increasing strictly."""
    nodes = tuple(_real(v, f"axis {name} node", low)
                  for v in _items(values, f"axis {name}", "a list of nodes"))
    if not nodes:
        raise ConfigurationError(f"axis {name} needs at least one node")
    for a, b in zip(nodes, nodes[1:]):
        if b <= a:
            raise ConfigurationError(f"axis {name} nodes must increase strictly ({a} then {b})")
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
        values = _array(self.values, "table values", (len(vx), len(vy), len(h), 9))
        if np.any(values[..., 0:6] < 0.0):
            raise ValueError("table gains must be nonnegative")
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


def _resolve_gains(tables, commands) -> list:
    """Each episode's gain rows: row i of entry k is tables[k] at commands[k][i].

    commands[k] is a sequence of GaitParameter. Each distinct table takes one
    _interpolate call over its distinct commands, so every row equals the
    vector a lone lookup gives, bit for bit.
    """
    tables, commands = tuple(tables), tuple(commands)
    if len(tables) != len(commands):
        raise ConfigurationError(
            f"a batch needs one table per episode, got {len(tables)} for {len(commands)}")
    distinct = {}  # id(table) -> (table, {command: its row among the table's})
    at = []  # per command of every episode: its table and row
    for table, own in zip(tables, commands):
        rows = distinct.setdefault(id(table), (table, {}))[1]
        at += [(id(table), rows.setdefault(cmd, len(rows))) for cmd in own]
    blocks = [_interpolate(table, [(c.vx, c.vy, c.h) for c in rows])
              for table, rows in distinct.values()]
    first = dict(zip(distinct, np.cumsum([0] + [len(b) for b in blocks]).tolist()))
    flat = np.concatenate([np.empty((0, 9)), *blocks])[[first[key] + row for key, row in at]]
    ends = np.cumsum([len(own) for own in commands]).tolist()
    return [flat[end - len(own):end] for own, end in zip(commands, ends)]


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
    return tuple(_node_index(nodes, q, name)
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
    # the values as nested lists of floats, sliced as ControlParams.from_vector does
    values = table.values.tolist()
    entries = []
    for vx, plane in zip(table.vx_nodes, values):
        for vy, row in zip(table.vy_nodes, plane):
            for h, vec in zip(table.h_nodes, row):
                entries.append({"p": [vx, vy, h], "kP": vec[0:3], "kD": vec[3:6],
                                "deltaP": vec[6:9]})
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
            p = [_number(c, "gain table entry p") for c in entry["p"]]
            vec = np.array([_numbers(entry[key], f"gain table entry {key}")
                            for key in ("kP", "kD", "deltaP")])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed gain table entry ({exc}): {entry!r}") from exc
        if len(p) != 3 or vec.shape != (3, 3):
            raise ConfigurationError(f"gain table entry has wrong arity: {entry!r}")
        i, j, k = _node_indices((vx, vy, h), p)
        if filled[i, j, k]:
            raise ConfigurationError(f"duplicate gain table entry at p={p}")
        filled[i, j, k] = True
        values[i, j, k] = vec.ravel()
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
    return table_from_json_dict(_read_json(path, "gain table"))
