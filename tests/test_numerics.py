"""Grid, interpolation, and RK4 sweep tests against closed-form solutions."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmlqg import numerics
from mmlqg.errors import IntegrationDivergedError, OutOfRangeError, SchemaError
from mmlqg.numerics import (
    GridFunction,
    TimeGrid,
    cumulative_simpson,
    interp,
    psd_check,
    rk4_backward_indexed,
    rk4_forward_indexed,
    symmetrize,
    trapezoid_weights,
)
from oracles import integrate_backward, integrate_forward


def test_grid_nodes():
    g = TimeGrid(2.0, 4)
    assert g.h == 0.5
    assert g.num_nodes == 5
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_grid_rejects_bad_args():
    with pytest.raises(SchemaError):
        TimeGrid(0.0, 10)
    with pytest.raises(SchemaError):
        TimeGrid(-1.0, 10)
    with pytest.raises(SchemaError):
        TimeGrid(1.0, 0)


def test_zero_rhs_stays_constant():
    g = TimeGrid(1.0, 50)
    I2 = np.eye(2)
    sol = integrate_backward(lambda t, Y: np.zeros_like(Y), I2, g)
    for j in range(g.num_nodes):
        assert np.array_equal(sol.values[j], I2)


def test_terminal_stored_exactly():
    g = TimeGrid(1.0, 7)
    term = np.array([[0.1234567890123456, 0.3], [0.3, -0.5]])
    sol = integrate_backward(lambda t, Y: Y @ Y - np.eye(2), term, g)
    assert np.array_equal(sol.values[-1], term)


def test_initial_stored_exactly():
    g = TimeGrid(1.0, 7)
    init = np.array([[math.pi]])
    sol = integrate_forward(lambda t, Y: -Y, init, g)
    assert np.array_equal(sol.values[0], init)


def test_scalar_riccati_tanh():
    # dP/dt = P^2 - 1, P(1) = 0  =>  P(t) = tanh(1 - t)
    g = TimeGrid(1.0, 200)
    sol = integrate_backward(lambda t, Y: Y @ Y - np.eye(1), np.zeros((1, 1)), g)
    assert abs(sol.values[0][0, 0] - math.tanh(1.0)) < 1e-8
    for j in range(0, g.num_nodes, 20):
        t = g.nodes[j]
        assert abs(sol.values[j][0, 0] - math.tanh(1.0 - t)) < 1e-8


def test_scalar_offset_exponential():
    # ds/dt = -s + 1, s(1) = 0  =>  s(t) = 1 - e^{1-t}
    g = TimeGrid(1.0, 200)
    sol = integrate_backward(
        lambda t, Y: -Y + np.ones((1, 1)), np.zeros((1, 1)), g
    )
    assert abs(sol.values[0][0, 0] - (1.0 - math.e)) < 1e-8


def test_forward_exponential():
    g = TimeGrid(1.0, 200)
    up = integrate_forward(lambda t, Y: Y, np.ones((1, 1)), g)
    dn = integrate_forward(lambda t, Y: -Y, np.ones((1, 1)), g)
    assert abs(up.values[-1][0, 0] - math.e) < 1e-8
    assert abs(dn.values[-1][0, 0] - 1.0 / math.e) < 1e-8


def test_rk4_order_ratio():
    # Halving h must shrink the tanh-oracle error by roughly 2^4.
    def err(M):
        g = TimeGrid(1.0, M)
        sol = integrate_backward(
            lambda t, Y: Y @ Y - np.eye(1), np.zeros((1, 1)), g
        )
        return abs(sol.values[0][0, 0] - math.tanh(1.0))

    ratio = err(25) / err(50)
    assert 10.0 < ratio < 24.0


def test_indexed_sweeps_match_time_sweeps():
    g = TimeGrid(1.5, 60)
    h = g.h

    def rhs(t, Y):
        return -Y + math.sin(t) * np.ones((1, 1))

    def stage_rhs(q, Y):
        return rhs(0.5 * q * h, Y)

    a = integrate_backward(rhs, np.zeros((1, 1)), g)
    b = rk4_backward_indexed(stage_rhs, np.zeros((1, 1)), g)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-14)

    c = integrate_forward(rhs, np.ones((1, 1)), g)
    d = rk4_forward_indexed(stage_rhs, np.ones((1, 1)), g)
    np.testing.assert_allclose(c.values, d.values, rtol=0, atol=1e-14)


def test_time_callback_sweep_matches_oracle():
    g = TimeGrid(1.5, 60)

    def rhs(t, Y):
        return -Y + math.sin(t) * np.ones((1, 1))

    a = numerics.integrate_backward(rhs, np.zeros((1, 1)), g)
    b = integrate_backward(rhs, np.zeros((1, 1)), g)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-14)


@pytest.mark.parametrize("sweep, node", [(rk4_backward_indexed, 9),
                                         (rk4_forward_indexed, 1)])
def test_indexed_sweep_reports_the_first_nonfinite_node(sweep, node):
    with pytest.raises(IntegrationDivergedError) as exc:
        sweep(lambda q, Y: Y @ Y * 1e200 + 1e200, np.ones((1, 1)), TimeGrid(1.0, 10))
    assert exc.value.node == node


def test_only_numerics_holds_an_rk4_stepping_loop():
    # the stage combination k1 + 2 k2 + 2 k3 + k4, however it is spelled
    stage_sum = re.compile(r"k1\S*\s*\+\s*2(\.0)?\s*\*\s*k2")
    src = Path(numerics.__file__).parent
    holders = sorted(f.name for f in src.glob("*.py")
                     if stage_sum.search(f.read_text()))
    assert holders == ["numerics.py"]


def test_project_hook_applied():
    g = TimeGrid(1.0, 10)
    # Asymmetric rhs, symmetrizing projection: every stored node symmetric.
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    sol = integrate_backward(
        lambda t, Y: A @ Y, np.eye(2), g, project=symmetrize
    )
    for j in range(g.num_nodes):
        np.testing.assert_array_equal(sol.values[j], sol.values[j].T)


def test_nonfinite_raises_with_node():
    g = TimeGrid(1.0, 10)

    def blowup(t, Y):
        return Y @ Y * 1e200 + 1e200

    with pytest.raises(IntegrationDivergedError) as exc:
        integrate_backward(blowup, np.ones((1, 1)), g)
    assert exc.value.node is not None


def test_interp_nodes_exact():
    g = TimeGrid(1.0, 3)
    vals = np.arange(4 * 2 * 2, dtype=float).reshape(4, 2, 2)
    f = GridFunction(g, vals)
    for j in range(4):
        assert np.array_equal(interp(f, g.nodes[j]), vals[j])
    # tiny perturbations snap back to the node value
    assert np.array_equal(interp(f, g.nodes[1] + 1e-13), vals[1])
    assert np.array_equal(interp(f, g.nodes[2] - 1e-13), vals[2])


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
    t=st.floats(0, 1),
)
def test_interp_affine_exact(a, b, t):
    g = TimeGrid(1.0, 17)
    vals = (a * g.nodes + b)[:, None, None]
    f = GridFunction(g, vals)
    assert interp(f, t)[0, 0] == pytest.approx(a * t + b, abs=1e-12)


def test_interp_out_of_range():
    g = TimeGrid(1.0, 4)
    f = GridFunction.constant(g, np.eye(2))
    with pytest.raises(OutOfRangeError):
        interp(f, -0.01)
    with pytest.raises(OutOfRangeError):
        interp(f, 1.01)


def test_gridfunction_shape_mismatch():
    g = TimeGrid(1.0, 4)
    with pytest.raises(SchemaError):
        GridFunction(g, np.zeros((3, 2, 2)))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(0, 1000))
def test_symmetrize_properties(n, seed):
    P = np.random.default_rng(seed).normal(size=(n, n))
    S = symmetrize(P)
    np.testing.assert_allclose(S, S.T, atol=0)
    np.testing.assert_array_equal(symmetrize(S), S)


def test_psd_check_basics():
    assert psd_check(np.eye(3), 0.0)
    assert psd_check(np.zeros((2, 2)), 0.0)
    assert not psd_check(np.diag([1.0, -1.0]), 1e-9)
    assert psd_check(np.diag([1.0, -1e-12]), 1e-9)


def test_cumulative_simpson_quadratic_exact():
    # parabola fits integrate quadratics without error
    g = TimeGrid(2.0, 16)
    t = g.nodes
    vals = (3.0 * t * t - 2.0 * t + 1.0)[:, None, None]
    out = cumulative_simpson(vals, g.h)
    exact = t**3 - t**2 + t
    np.testing.assert_allclose(out[:, 0, 0], exact, atol=1e-12)


def test_cumulative_simpson_sin_third_order():
    def node_err(M):
        g = TimeGrid(math.pi, M)
        vals = np.sin(g.nodes)[:, None, None]
        out = cumulative_simpson(vals, g.h)
        return np.max(np.abs(out[:, 0, 0] - (1.0 - np.cos(g.nodes))))

    e1, e2 = node_err(80), node_err(160)
    assert e1 < 1e-5
    assert e1 / e2 > 6.0  # at least third order


def test_trapezoid_weights_sum():
    g = TimeGrid(3.0, 12)
    w = trapezoid_weights(g)
    assert w.sum() == pytest.approx(3.0, abs=1e-14)
    # integrates affine functions exactly
    vals = 2.0 * g.nodes + 1.0
    assert (w * vals).sum() == pytest.approx(3.0 * 3.0 + 3.0, abs=1e-12)
