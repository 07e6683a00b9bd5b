"""Grids, Simpson weights, and price curves."""

import numpy as np
import pytest

from lvkernel import DomainError, PriceCurve, SpatialGrid, simpson_weights


class TestSimpsonWeights:
    # the patterns hold bit for bit: each weight is one product, or one sum at a join
    def test_even_interval_pattern(self):
        w = simpson_weights(5, 0.5)
        np.testing.assert_array_equal(w, 0.5 / 3.0 * np.array([1, 4, 2, 4, 1]))

    def test_three_interval_pattern(self):
        w = simpson_weights(4, 0.25)
        np.testing.assert_array_equal(w, 0.25 * 3.0 / 8.0 * np.array([1, 3, 3, 1]))

    @pytest.mark.parametrize("head", [2, 4, 6, 8])
    def test_odd_interval_count_mixes_rules(self, head):
        # Simpson on the first `head` intervals, the 3/8 rule on the last three
        w = simpson_weights(head + 4, 1.0)
        simpson = np.array([1.0, *[4.0, 2.0] * (head // 2 - 1), 4.0, 1.0])
        expect = np.zeros(head + 4)
        expect[: head + 1] += 1.0 / 3.0 * simpson
        expect[head:] += 3.0 / 8.0 * np.array([1, 3, 3, 1])
        np.testing.assert_array_equal(w, expect)

    @pytest.mark.parametrize("n_nodes", [3, 4, 5, 6, 7, 10, 11])
    def test_weight_sum_is_interval_length(self, n_nodes):
        dx = 0.3
        w = simpson_weights(n_nodes, dx)
        assert abs(w.sum() - (n_nodes - 1) * dx) < 1e-13

    @pytest.mark.parametrize("n_nodes", [3, 4, 5, 6, 7, 11])
    def test_exact_on_cubics(self, n_nodes):
        dx = 1.0 / (n_nodes - 1)
        xs = np.linspace(0.0, 1.0, n_nodes)
        w = simpson_weights(n_nodes, dx)
        assert abs(w @ xs**3 - 0.25) < 1e-14

    def test_too_few_nodes_rejected(self):
        with pytest.raises(DomainError):
            simpson_weights(2, 0.1)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(DomainError):
            simpson_weights(5, 0.0)

    @pytest.mark.parametrize("dx", [float("nan"), float("inf")])
    def test_nonfinite_spacing_rejected(self, dx):
        # both pass a "dx <= 0" check, to NaN or infinite weights
        with pytest.raises(DomainError, match="^dx must be positive and finite, got"):
            simpson_weights(5, dx)


class TestSpatialGrid:
    def test_nodes_and_counts(self):
        g = SpatialGrid(x_min=1.0, x_max=3.0, dx=0.5)
        assert g.n_intervals == 4
        assert g.n_nodes == 5
        np.testing.assert_allclose(g.nodes, [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_regular_starts_one_spacing_above_zero(self):
        g = SpatialGrid.regular(10.0, 0.1)
        assert g.x_min == pytest.approx(0.1)
        assert g.x_max == 10.0
        assert g.nodes[0] == pytest.approx(0.1)

    def test_weights_match_simpson(self):
        g = SpatialGrid(x_min=1.0, x_max=2.0, dx=0.25)
        np.testing.assert_allclose(g.weights, simpson_weights(5, 0.25))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=0.0, x_max=1.0, dx=0.1),
            dict(x_min=-1.0, x_max=1.0, dx=0.1),
            dict(x_min=2.0, x_max=1.0, dx=0.1),
            dict(x_min=1.0, x_max=2.0, dx=0.0),
            dict(x_min=1.0, x_max=2.0, dx=0.3),
            dict(x_min=1.0, x_max=1.1, dx=0.1),
            dict(x_min=1.0, x_max=np.inf, dx=0.1),
        ],
    )
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(DomainError):
            SpatialGrid(**kwargs)

    @pytest.mark.parametrize("value, shown", [
        (True, "True"), (np.True_, r"np\.True_"), (np.array([True]), r"array\(\[ True\]\)"),
        (None, "None"), ("1", "'1'"),
    ], ids=["bool", "numpy-bool", "bool-array", "none", "str"])
    @pytest.mark.parametrize("name", ["x_min", "x_max", "dx"])
    def test_non_numbers_rejected(self, name, value, shown):
        # True passed every check as 1; None and a str raised NumPy's TypeError
        kwargs = dict(x_min=1.0, x_max=3.0, dx=1.0)
        kwargs[name] = value
        with pytest.raises(DomainError, match=f"^{name} must be a number, got {shown}$"):
            SpatialGrid(**kwargs)

    def test_near_integer_ratio_accepted(self):
        g = SpatialGrid(x_min=0.1, x_max=10.0, dx=0.1)
        assert g.n_intervals == 99


class TestPriceCurve:
    def test_basic_properties(self):
        c = PriceCurve(np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 15.0]))
        assert len(c) == 3
        assert c.value_at(2.5) == pytest.approx(17.5)
        np.testing.assert_allclose(c.value_at(np.array([1.0, 3.0])), [10.0, 15.0])

    def test_rejects_unsorted_x(self):
        with pytest.raises(DomainError):
            PriceCurve(np.array([1.0, 1.0, 2.0]), np.array([0.0, 0.0, 0.0]))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(DomainError):
            PriceCurve(np.array([1.0, 2.0]), np.array([0.0, np.nan]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            PriceCurve(np.array([1.0, 2.0]), np.array([0.0, 1.0, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            PriceCurve(np.array([]), np.array([]))
