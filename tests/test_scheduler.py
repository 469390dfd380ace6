"""Gain table interpolation, node updates, corrections, and persistence."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaitbo.domain import ControlParams, GaitParameter, correction_from_vector
from gaitbo.errors import ConfigurationError, GridNodeError
from gaitbo.pipeline import full_scale_config
from gaitbo.scheduler import (
    GainTable,
    _interpolate,
    _resolve_gains,
    apply_corrections,
    load_table,
    lookup,
    save_table,
    table_from_json_dict,
    table_to_json_dict,
    upsert,
)

VX = (-0.4, 0.0, 0.4)
VY = (0.0,)
H = (0.8, 1.0)


def reference_cell_weight(nodes, q):
    """Lower node index and fractional weight for a clamped query on one axis."""
    if len(nodes) == 1:
        return 0, 0.0
    if q <= nodes[0]:
        return 0, 0.0
    if q >= nodes[-1]:
        return len(nodes) - 2, 1.0
    idx = int(np.searchsorted(nodes, q, side="right")) - 1
    x0, x1 = nodes[idx], nodes[idx + 1]
    return idx, (q - x0) / (x1 - x0)


def reference_lookup(table, p):
    """The scalar lookup the batched interpolation replaced, kept as its reference.

    One query at a time: a clamped cell weight per axis, then the corners
    with nonzero weight summed in (i, j, k) order.
    """
    i, wx = reference_cell_weight(table.vx_nodes, p.vx)
    j, wy = reference_cell_weight(table.vy_nodes, p.vy)
    k, wz = reference_cell_weight(table.h_nodes, p.h)
    i1 = min(i + 1, len(table.vx_nodes) - 1)
    j1 = min(j + 1, len(table.vy_nodes) - 1)
    k1 = min(k + 1, len(table.h_nodes) - 1)
    v = table.values
    out = np.zeros(9)
    for ii, fx in ((i, 1.0 - wx), (i1, wx)):
        if fx == 0.0:
            continue
        for jj, fy in ((j, 1.0 - wy), (j1, wy)):
            if fy == 0.0:
                continue
            for kk, fz in ((k, 1.0 - wz), (k1, wz)):
                if fz == 0.0:
                    continue
                out += (fx * fy * fz) * v[ii, jj, kk]
    return ControlParams.from_vector(out)


def random_table(rng, vx=VX, vy=VY, h=H, scale=3.0):
    values = rng.uniform(0.0, scale, (len(vx), len(vy), len(h), 9))
    values[..., 6:9] = rng.uniform(-0.2, 0.2, (len(vx), len(vy), len(h), 3))
    return GainTable(vx, vy, h, values)


class TestConstruction:
    def test_rejects_unsorted_axes(self):
        with pytest.raises(ValueError):
            GainTable((0.0, -0.4), VY, H, np.zeros((2, 1, 2, 9)))
        with pytest.raises(ValueError):
            GainTable((0.0, 0.0), VY, H, np.zeros((2, 1, 2, 9)))

    def test_rejects_negative_gains(self):
        values = np.zeros((3, 1, 2, 9))
        values[0, 0, 0, 2] = -0.1
        with pytest.raises(ValueError):
            GainTable(VX, VY, H, values)

    def test_filled_and_constant(self):
        params = ControlParams([1, 1, 1], [0.5, 0.5, 0.5], [0, 0, 0])
        table = GainTable.filled(VX, VY, H, params)
        assert table.n_nodes == 6
        single = GainTable.constant(params)
        assert single.n_nodes == 1
        out = lookup(single, GaitParameter(5.0, -5.0, 0.01))
        np.testing.assert_array_equal(out.kP, params.kP)


class TestLookup:
    def test_exact_at_every_node(self):
        rng = np.random.default_rng(0)
        table = random_table(rng)
        for i, vx in enumerate(VX):
            for j, vy in enumerate(VY):
                for k, h in enumerate(H):
                    out = lookup(table, GaitParameter(vx, vy, h))
                    np.testing.assert_array_equal(out.as_vector(), table.values[i, j, k])

    def test_midpoint_averages_neighbors(self):
        rng = np.random.default_rng(1)
        table = random_table(rng)
        p = GaitParameter(-0.2, 0.0, 0.9)  # midpoint along vx and h
        out = lookup(table, p).as_vector()
        corners = table.values[0:2, 0, 0:2].reshape(4, 9)
        np.testing.assert_allclose(out, corners.mean(axis=0), rtol=1e-12)

    def test_interpolation_stays_within_corner_bounds(self):
        rng = np.random.default_rng(2)
        table = random_table(rng, vx=(-1.0, -0.2, 0.5, 1.0), vy=(-0.3, 0.0, 0.3),
                             h=(0.7, 0.85, 1.0))
        for _ in range(1000):
            p = GaitParameter(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3),
                              rng.uniform(0.7, 1.0))
            out = lookup(table, p).as_vector()
            i = np.searchsorted(table.vx_nodes, p.vx, side="right") - 1
            j = np.searchsorted(table.vy_nodes, p.vy, side="right") - 1
            k = np.searchsorted(table.h_nodes, p.h, side="right") - 1
            i = min(max(i, 0), len(table.vx_nodes) - 2)
            j = min(max(j, 0), len(table.vy_nodes) - 2)
            k = min(max(k, 0), len(table.h_nodes) - 2)
            corners = table.values[i:i + 2, j:j + 2, k:k + 2].reshape(8, 9)
            assert np.all(out >= corners.min(axis=0) - 1e-12)
            assert np.all(out <= corners.max(axis=0) + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_query_stays_within_its_cell_corners(self, data):
        def axis():
            return st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4,
                            unique=True).map(sorted)

        axes = (data.draw(axis()), data.draw(axis()), data.draw(axis()))
        shape = tuple(len(a) for a in axes)
        gains = data.draw(arrays(float, shape + (6,), elements=st.floats(0.0, 100.0)))
        offsets = data.draw(arrays(float, shape + (3,), elements=st.floats(-1.0, 1.0)))
        table = GainTable(*axes, np.concatenate([gains, offsets], axis=-1))
        # heights must be positive; every axis reaches past its nodes
        query = GaitParameter(data.draw(st.floats(-20.0, 20.0)),
                              data.draw(st.floats(-20.0, 20.0)),
                              data.draw(st.floats(1e-3, 20.0)))
        out = lookup(table, query)
        cell = []
        for nodes, q in zip(table.axes, query.as_array()):
            q = min(max(q, nodes[0]), nodes[-1])
            lo = int(np.searchsorted(nodes, q, side="right")) - 1
            lo = min(lo, max(len(nodes) - 2, 0))
            cell.append(slice(lo, lo + 2))
        corners = table.values[tuple(cell)].reshape(-1, 9)
        tol = 1e-12 * max(1.0, float(np.abs(corners).max()))
        assert np.all(out.as_vector() >= corners.min(axis=0) - tol)
        assert np.all(out.as_vector() <= corners.max(axis=0) + tol)

    def test_clamps_to_boundary_projection(self):
        rng = np.random.default_rng(3)
        table = random_table(rng)
        outside = GaitParameter(2.0, 1.0, 0.1)
        clamped = GaitParameter(0.4, 0.0, 0.8)
        np.testing.assert_array_equal(lookup(table, outside).as_vector(),
                                      lookup(table, clamped).as_vector())

    def test_continuity_under_small_perturbations(self):
        rng = np.random.default_rng(4)
        table = random_table(rng, scale=3.0)
        for _ in range(200):
            p = GaitParameter(rng.uniform(-0.5, 0.5), 0.0, rng.uniform(0.75, 1.05))
            base = lookup(table, p).as_vector()
            for eps in (1e-7, -1e-7):
                q = GaitParameter(p.vx + eps, p.vy, p.h + eps)
                moved = lookup(table, q).as_vector()
                assert np.max(np.abs(moved - base)) <= 1e-4

    def test_single_node_axis_is_constant(self):
        rng = np.random.default_rng(5)
        table = random_table(rng)
        a = lookup(table, GaitParameter(0.1, -0.3, 0.9)).as_vector()
        b = lookup(table, GaitParameter(0.1, 0.3, 0.9)).as_vector()
        np.testing.assert_array_equal(a, b)


def axis_query(nodes):
    """A query on one axis: on a node, between two, or clamped on either side."""
    lo, hi = nodes[0], nodes[-1]
    return st.one_of(
        st.sampled_from(nodes),
        st.floats(lo, hi),
        st.floats(lo - 5.0, lo),
        st.floats(hi, hi + 5.0),
    )


class TestInterpolate:
    """_interpolate rows equal the scalar reference lookup, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_match_reference_lookup(self, data):
        def axis(low):
            return st.lists(st.floats(low, 3.0), min_size=1, max_size=5,
                            unique=True).map(sorted)

        axes = (data.draw(axis(-3.0)), data.draw(axis(-3.0)), data.draw(axis(0.1)))
        shape = tuple(len(a) for a in axes)
        # Zeros of both signs among the values, and negative offsets.
        gains = data.draw(arrays(float, shape + (6,),
                                 elements=st.sampled_from([0.0, 1.5]) | st.floats(0.0, 50.0)))
        offsets = data.draw(arrays(float, shape + (3,), elements=st.sampled_from(
            [0.0, -0.0]) | st.floats(-2.0, 2.0)))
        table = GainTable(*axes, np.concatenate([gains, offsets], axis=-1))
        queries = data.draw(st.lists(st.tuples(
            axis_query(axes[0]), axis_query(axes[1]),
            axis_query(axes[2]).map(lambda h: max(h, 1e-3))), min_size=1, max_size=8))
        rows = _interpolate(table, np.array(queries))
        assert rows.shape == (len(queries), 9)
        for row, query in zip(rows, queries):
            want = reference_lookup(table, GaitParameter(*query)).as_vector()
            assert row.tobytes() == want.tobytes()
            assert lookup(table, GaitParameter(*query)).as_vector().tobytes() == want.tobytes()

    def test_batch_rows_equal_lone_queries(self):
        rng = np.random.default_rng(20)
        table = random_table(rng, vx=(-1.0, -0.2, 0.5, 1.0), vy=(-0.3, 0.0, 0.3),
                             h=(0.7, 0.85, 1.0))
        points = rng.uniform([-1.5, -0.5, 0.5], [1.5, 0.5, 1.2], (200, 3))
        rows = _interpolate(table, points)
        for row, point in zip(rows, points):
            assert row.tobytes() == _interpolate(table, point[None]).tobytes()


class TestResolveGains:
    """Each episode's gain rows equal a lone lookup at each of its commands,
    bit for bit, whether tables and commands repeat across episodes or not."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rows_equal_lone_lookups(self, data):
        def axis(low):
            return st.lists(st.floats(low, 3.0), min_size=1, max_size=4,
                            unique=True).map(sorted)

        tables = []
        for _ in range(data.draw(st.integers(1, 3))):
            axes = (data.draw(axis(-3.0)), data.draw(axis(-3.0)), data.draw(axis(0.1)))
            shape = tuple(len(a) for a in axes)
            gains = data.draw(arrays(float, shape + (6,), elements=st.floats(0.0, 50.0)))
            offsets = data.draw(arrays(float, shape + (3,), elements=st.sampled_from(
                [0.0, -0.0]) | st.floats(-2.0, 2.0)))
            tables.append(GainTable(*axes, np.concatenate([gains, offsets], axis=-1)))
        # on a node, between nodes or clamped on the first table's grid; off
        # the others' grids
        first = tables[0].axes
        pool = data.draw(st.lists(st.builds(
            GaitParameter, axis_query(first[0]), axis_query(first[1]),
            axis_query(first[2]).map(lambda h: max(h, 1e-3))), min_size=1, max_size=6))
        episodes = data.draw(st.lists(st.tuples(
            st.integers(0, len(tables) - 1),
            st.lists(st.sampled_from(pool), min_size=1, max_size=3)), min_size=1, max_size=6))
        rows = _resolve_gains([tables[t] for t, _ in episodes], [c for _, c in episodes])
        assert len(rows) == len(episodes)
        for got, (t, commands) in zip(rows, episodes):
            assert got.shape == (len(commands), 9)
            for row, cmd in zip(got, commands):
                assert row.tobytes() == lookup(tables[t], cmd).as_vector().tobytes()

    def test_needs_one_table_per_episode(self):
        table = random_table(np.random.default_rng(1))
        with pytest.raises(ConfigurationError, match="one table per episode"):
            _resolve_gains([table] * 2, [[GaitParameter(0.0, 0.0, 1.0)]])


class TestUpsert:
    def test_replaces_single_node(self):
        rng = np.random.default_rng(6)
        table = random_table(rng)
        params = ControlParams([9, 9, 9], [1, 1, 1], [0.1, 0.1, 0.1])
        out = upsert(table, GaitParameter(0.0, 0.0, 1.0), params)
        np.testing.assert_array_equal(out.values[1, 0, 1], params.as_vector())
        # all other nodes untouched
        mask = np.ones((3, 1, 2), dtype=bool)
        mask[1, 0, 1] = False
        np.testing.assert_array_equal(out.values[mask], table.values[mask])

    def test_off_node_reports_nearest(self):
        rng = np.random.default_rng(7)
        table = random_table(rng)
        with pytest.raises(GridNodeError, match="nearest node is vx=0.4"):
            upsert(table, GaitParameter(0.3, 0.0, 1.0), ControlParams.zero())

    def test_tolerates_tiny_coordinate_noise(self):
        rng = np.random.default_rng(8)
        table = random_table(rng)
        params = ControlParams([1, 2, 3], [0, 0, 0], [0, 0, 0])
        out = upsert(table, GaitParameter(0.4 + 1e-10, 0.0, 0.8), params)
        np.testing.assert_array_equal(out.values[2, 0, 0], params.as_vector())


class TestApplyCorrections:
    def test_applies_at_named_nodes_only(self):
        rng = np.random.default_rng(9)
        table = random_table(rng)
        corr = correction_from_vector([0.1, 0.05, -0.1, -0.05, 0.02, -0.02])
        out = apply_corrections(table, [(GaitParameter(0.0, 0.0, 1.0), corr)])
        before = table.node_params(1, 0, 1)
        after = out.node_params(1, 0, 1)
        assert after.kP[0] == pytest.approx(before.kP[0] + 0.1)
        assert after.kD[1] == pytest.approx(max(before.kD[1] - 0.05, 0.0))
        assert after.kP[2] == before.kP[2]
        mask = np.ones((3, 1, 2), dtype=bool)
        mask[1, 0, 1] = False
        np.testing.assert_array_equal(out.values[mask], table.values[mask])


def reference_table_to_json_dict(table):
    """table_to_json_dict as first written: one ControlParams per node."""
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
    return {"axes": {"vx": list(table.vx_nodes), "vy": list(table.vy_nodes),
                     "h": list(table.h_nodes)},
            "entries": entries}


class TestPersistence:
    def test_full_scale_document_text_matches_the_per_node_reference(self, tmp_path):
        cfg = full_scale_config(0)
        shape = (len(cfg.vx_nodes), len(cfg.vy_nodes), len(cfg.h_nodes))
        rng = np.random.default_rng(20)
        values = np.concatenate([rng.uniform(0.0, 50.0, shape + (6,)),
                                 rng.normal(0.0, 0.1, shape + (3,))], axis=-1)
        values[0, 0, 0] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, -0.0, 0.0, 1e-300]
        table = GainTable(cfg.vx_nodes, cfg.vy_nodes, cfg.h_nodes, values)
        path = tmp_path / "table.json"
        save_table(table, path)
        want = reference_table_to_json_dict(table)
        assert len(want["entries"]) == 308
        assert path.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        table = random_table(rng)
        path = tmp_path / "table.json"
        save_table(table, path)
        again = load_table(path)
        assert again.axes == table.axes
        np.testing.assert_array_equal(again.values, table.values)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_valid_table_round_trips(self, data):
        def axis():
            return st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                            max_size=4, unique=True).map(sorted)

        vx, vy, h = data.draw(axis()), data.draw(axis()), data.draw(axis())
        shape = (len(vx), len(vy), len(h))
        gains = data.draw(arrays(float, shape + (6,), elements=st.floats(0.0, 1e6)))
        offsets = data.draw(arrays(float, shape + (3,),
                                   elements=st.floats(-1e6, 1e6, allow_nan=False)))
        table = GainTable(vx, vy, h, np.concatenate([gains, offsets], axis=-1))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.json")
            save_table(table, path)
            again = load_table(path)
        assert again.axes == table.axes
        np.testing.assert_array_equal(again.values, table.values)

    @pytest.mark.parametrize("text", [None, "{", "[1, 2"], ids=["missing", "brace", "list"])
    def test_unreadable_file_is_configuration_error(self, tmp_path, text):
        path = tmp_path / "table.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigurationError, match="gain table"):
            load_table(path)

    def test_entries_are_vx_major(self):
        rng = np.random.default_rng(11)
        table = random_table(rng)
        doc = table_to_json_dict(table)
        ps = [tuple(e["p"]) for e in doc["entries"]]
        expected = [(vx, vy, h) for vx in VX for vy in VY for h in H]
        assert ps == expected

    def test_incomplete_document_rejected(self):
        rng = np.random.default_rng(12)
        doc = table_to_json_dict(random_table(rng))
        doc["entries"] = doc["entries"][:-1]
        with pytest.raises(ConfigurationError, match="incomplete"):
            table_from_json_dict(doc)

    def test_duplicate_entry_rejected(self):
        rng = np.random.default_rng(13)
        doc = table_to_json_dict(random_table(rng))
        doc["entries"][1] = doc["entries"][0]
        with pytest.raises(ConfigurationError):
            table_from_json_dict(doc)

    def test_nan_gain_rejected_as_non_finite(self):
        # not mistaken for a node the document leaves out
        doc = table_to_json_dict(random_table(np.random.default_rng(17)))
        doc["entries"][2]["kP"][0] = float("nan")
        with pytest.raises(ConfigurationError, match="finite"):
            table_from_json_dict(doc)

    def test_duplicate_after_nan_entry_rejected(self):
        doc = table_to_json_dict(random_table(np.random.default_rng(18)))
        doc["entries"][0]["deltaP"][2] = float("nan")
        doc["entries"][1] = dict(doc["entries"][0], deltaP=[0.0, 0.0, 0.0])
        with pytest.raises(ConfigurationError, match="duplicate"):
            table_from_json_dict(doc)

    def test_nan_node_coordinate_rejected(self):
        doc = table_to_json_dict(random_table(np.random.default_rng(19)))
        doc["entries"][0]["p"] = [float("nan"), 0.0, 0.8]
        with pytest.raises(GridNodeError, match="not a grid node"):
            table_from_json_dict(doc)

    def test_off_grid_entry_rejected(self):
        rng = np.random.default_rng(14)
        doc = table_to_json_dict(random_table(rng))
        doc["entries"][0]["p"] = [0.123, 0.0, 1.0]
        with pytest.raises(GridNodeError):
            table_from_json_dict(doc)

    @pytest.mark.parametrize("bad_p", [5, [0.0, 0.0], [0.0, 0.0, 1.0, 2.0], ["x", 0.0, 1.0]])
    def test_malformed_node_coordinates_rejected(self, bad_p):
        doc = table_to_json_dict(random_table(np.random.default_rng(15)))
        doc["entries"][0]["p"] = bad_p
        with pytest.raises(ConfigurationError, match="gain table entry"):
            table_from_json_dict(doc)

    def test_negative_gain_document_rejected(self):
        doc = table_to_json_dict(random_table(np.random.default_rng(16)))
        doc["entries"][0]["kD"][1] = -0.5
        with pytest.raises(ConfigurationError, match="nonnegative"):
            table_from_json_dict(doc)

    def test_full_scale_grid_arity(self):
        vx = tuple(round(-1.0 + 0.2 * k, 10) for k in range(11))
        vy = tuple(round(-0.3 + 0.1 * k, 10) for k in range(7))
        h = (0.7, 0.8, 0.9, 1.0)
        table = GainTable.filled(vx, vy, h, ControlParams.zero())
        assert table.n_nodes == 308
        doc = table_to_json_dict(table)
        assert len(doc["entries"]) == 308
