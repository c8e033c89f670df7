import math

import numpy as np
import pytest

from fracham import FractionalOrder, Grid, SampledFn, as_order


class TestGrid:
    def test_nodes_are_equispaced(self):
        g = Grid(0.0, 1.0, 17)
        d = np.diff(g.nodes)
        assert np.all(d > 0)
        assert np.max(np.abs(d - g.h)) <= 1e-14 * (g.b - g.a)

    def test_nodes_hit_endpoints_exactly(self):
        g = Grid(-2.0, 3.0, 5)
        assert g.nodes[0] == -2.0
        assert g.nodes[-1] == 3.0
        assert len(g.nodes) == 6

    def test_h_positive(self):
        assert Grid(0.0, 1.0, 4).h == 0.25

    @pytest.mark.parametrize("a,b,n", [(1.0, 0.0, 4), (0.0, 0.0, 4), (0.0, 1.0, 1), (0.0, 1.0, 0)])
    def test_rejects_bad_input(self, a, b, n):
        with pytest.raises(ValueError):
            Grid(a, b, n)

    @pytest.mark.parametrize("n", [8.9, 8.5, np.float64(16.2), math.inf, math.nan])
    def test_rejects_non_integral_n(self, n):
        with pytest.raises(ValueError, match=f"integer number of subintervals, got n = {n}"):
            Grid(0.0, 1.0, n)

    @pytest.mark.parametrize("n", [8, 8.0, np.float64(8.0), np.int64(8), np.int32(8)])
    def test_integral_n_is_kept(self, n):
        g = Grid(0.0, 1.0, n)
        assert g.n == 8 and type(g.n) is int

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                                     (0.0, math.nan), (-1e308, 1e308)])
    def test_rejects_non_finite_interval(self, a, b):
        # the last case overflows b - a, and with it h
        with pytest.raises(ValueError, match="finite interval"):
            Grid(a, b, 4)

    @pytest.mark.parametrize("a,b", [(1e16, 1e16 + 2.0), (1.0, 1.0 + 4.4e-16)])
    def test_rejects_interval_too_narrow_for_distinct_nodes(self, a, b):
        # h is positive, but rounding puts several of the 5 nodes on one float
        with pytest.raises(ValueError, match="too narrow for 5 distinct nodes"):
            Grid(a, b, 4)

    def test_accepts_narrow_interval_with_distinct_nodes(self):
        g = Grid(1.0, 1.0 + 1e-13, 4)
        assert np.all(np.diff(g.nodes) > 0)

    def test_value_equality_and_hash(self):
        assert Grid(0, 1, 8) == Grid(0.0, 1.0, 8)
        assert hash(Grid(0, 1, 8)) == hash(Grid(0.0, 1.0, 8))

    def test_nodes_read_only(self):
        g = Grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            g.nodes[0] = 7.0


class TestFractionalOrder:
    def test_accepts_interior(self):
        assert FractionalOrder(0.5).value == 0.5

    @pytest.mark.parametrize("v", [0.0, 1.0, -0.25, 1.75])
    def test_rejects_outside_open_interval(self, v):
        with pytest.raises(ValueError):
            FractionalOrder(v)

    def test_complement(self):
        assert FractionalOrder(0.3).complement.value == pytest.approx(0.7)

    def test_as_order_coerces_and_passes_through(self):
        o = FractionalOrder(0.4)
        assert as_order(o) is o
        assert as_order(0.4) == o


class TestSampledFn:
    def test_round_trip(self):
        g = Grid(0.0, 1.0, 4)
        f = SampledFn(g, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert f.values.dtype == np.float64
        assert f.usable.all()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SampledFn(Grid(0.0, 1.0, 4), np.zeros(4))

    def test_rejects_non_finite_naming_node(self):
        g = Grid(0.0, 1.0, 4)
        v = np.zeros(5)
        v[2] = np.nan
        with pytest.raises(ValueError, match="node 2"):
            SampledFn(g, v)

    def test_sentinel_path_allows_nan_but_not_inf(self):
        g = Grid(0.0, 1.0, 4)
        v = np.zeros(5)
        v[0] = np.nan
        f = SampledFn(g, v, allow_sentinels=True)
        assert not f.usable[0] and f.usable[1:].all()
        v[0] = np.inf
        with pytest.raises(ValueError):
            SampledFn(g, v, allow_sentinels=True)

    @pytest.mark.parametrize("node", [1, 3, 4, 7])
    def test_sentinel_path_rejects_interior_nan_naming_node(self, node):
        # a sentinel marks an operator's unusable row, and only rows 0 and n
        # are ever one; a NaN elsewhere would spread to earlier rows through
        # the product of a later apply
        g = Grid(0.0, 1.0, 8)
        v = np.ones(9)
        v[node] = np.nan
        with pytest.raises(ValueError, match=rf"node {node} \(t = {node / 8:g}\)"):
            SampledFn(g, v, allow_sentinels=True)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("node", [0, 8])
    @pytest.mark.parametrize("allow_sentinels", [False, True])
    def test_infinite_endpoint_rejected_naming_node(self, allow_sentinels, node, sign):
        g = Grid(0.0, 1.0, 8)
        v = np.ones(9)
        v[node] = sign * np.inf
        with pytest.raises(ValueError, match=rf"node {node} \(t = {node / 8:g}\)"):
            SampledFn(g, v, allow_sentinels=allow_sentinels)

    def test_first_bad_node_is_named(self):
        # the interior NaN at node 2 comes before the infinity at node 4;
        # the NaN sentinel at node 0 is allowed
        g = Grid(0.0, 1.0, 4)
        v = np.array([np.nan, 0.0, np.nan, 0.0, np.inf])
        with pytest.raises(ValueError, match=r"value nan at node 2 \(t = 0.5\)"):
            SampledFn(g, v, allow_sentinels=True)

    def test_from_callable(self):
        g = Grid(0.0, 1.0, 8)
        f = SampledFn.from_callable(g, np.sin)
        assert np.allclose(f.values, np.sin(g.nodes))

    def test_values_read_only_and_copied(self):
        g = Grid(0.0, 1.0, 2)
        src = np.array([1.0, 2.0, 3.0])
        f = SampledFn(g, src)
        src[0] = 99.0
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 5.0
