"""Block-assembly checks for the game model."""

import dataclasses

import numpy as np
import pytest

from mmlqg.errors import DimensionGuardError, SchemaError
from mmlqg.lqg_single import LqgProblem, psd_sqrt, spd_solver, validate_convexity
from mmlqg.mfg_model import (
    MajorParams,
    MinorTypeParams,
    MmMfgProblem,
    build_extended_major,
    build_extended_minor,
    build_mean_field_matrices,
    replicate_pi,
    selector,
    validate_problem,
)
from mmlqg.mfg_solver import FixedPointConfig
from mmlqg.numerics import GridFunction, TimeGrid
from mmlqg.toys import coupled_toy, decoupled_toy
from oracles import extract_pi_blocks, split_cross_blocks


def one_type_problem(n=1, **major_over):
    A = 0.1 * np.eye(n)
    major_kw = dict(
        A0=A, F0=0.2 * np.eye(n), B0=np.ones((n, 1)),
        b0=np.zeros((n, 1)), sigma0=0.3 * np.eye(n),
        Qhat0=np.eye(n), Q0=np.eye(n), N0=np.zeros((n, 1)),
        R0=[[1.0]], H0=0.5 * np.eye(n), eta0=np.zeros((n, 1)),
    )
    major_kw.update(major_over)
    minors = [MinorTypeParams(
        Ak=-0.3 * np.eye(n), Fk=0.4 * np.eye(n), Gk=0.2 * np.eye(n),
        Bk=np.ones((n, 1)), bk=np.zeros((n, 1)), sigmak=0.3 * np.eye(n),
        Qhatk=np.eye(n), Qk=np.eye(n), Nk=np.zeros((n, 1)), Rk=[[1.0]],
        Hk=0.1 * np.eye(n), Hhatk=0.2 * np.eye(n), etak=np.zeros((n, 1)),
    )]
    return MmMfgProblem(
        major=MajorParams(**major_kw), minors=minors, pi=[1.0],
        grid=TimeGrid(1.0, 20),
    )


# ------------------------------------------------------------- validation


def test_validate_default_toy():
    assert validate_problem(coupled_toy(M=20)).ok
    assert validate_problem(decoupled_toy(M=20)).ok


def test_validate_rejects_bad_pi():
    p = coupled_toy(M=20)
    p.pi = np.array([0.7, 0.7])
    rep = validate_problem(p)
    assert not rep.ok
    assert any("pi" in c.name and not c.passed for c in rep.checks)


def test_validate_rejects_singular_minor_r():
    p = coupled_toy(M=20)
    p.minors[1].Rk = np.zeros((1, 1))
    rep = validate_problem(p)
    assert not rep.ok
    assert any("minor[1]" in c.name and not c.passed for c in rep.checks)


def test_validate_reports_indefinite_initial_covariance():
    p = coupled_toy(M=20)
    p.init_cov_minor = np.diag([0.1, -0.25])
    (check,) = [c for c in validate_problem(p).checks
                if c.name == "initial covariances PSD"]
    assert not check.passed
    assert check.detail == "min eigenvalue -2.500e-01"


I2 = np.eye(2)


@pytest.mark.parametrize("weights, convex", [
    (dict(), True),
    (dict(R=[[1.0, 0.5], [0.0, 1.0]]), False),            # asymmetric R
    (dict(R=[[1.0, 0.0], [0.0, 0.0]]), False),            # singular R
    (dict(N=1.5 * I2), False),                            # Q - N R^-1 N' < 0
    (dict(Q=[[1.0, 0.5], [0.5, 0.25]], N=[[1.0, 0.0], [0.5, 0.0]], R=I2),
     True),                                               # Q = N R^-1 N'
    (dict(Qhat=[[1.0, 0.0], [0.0, -0.1]]), False),        # indefinite Qhat
])
def test_single_agent_and_game_checks_give_one_verdict(weights, convex):
    # the standalone convexity check and the game's check of its major
    # read the same primitive weights through one helper
    w = dict(Qhat=0.5 * I2, Q=I2, N=0.1 * I2, R=[[1.0, 0.1], [0.1, 0.8]])
    w.update(weights)
    zero = np.zeros((2, 1))
    single = LqgProblem(A=0.1 * I2, B=I2, b=zero, sigma=zero, Qhat=w["Qhat"],
                        Q=w["Q"], N_cross=w["N"], R=w["R"], eta=zero,
                        n_lin=zero, rho=0.0, grid=TimeGrid(1.0, 4), x0=zero)
    game = MmMfgProblem(
        major=MajorParams(A0=0.1 * I2, F0=0 * I2, B0=I2, b0=zero, sigma0=I2,
                          Qhat0=w["Qhat"], Q0=w["Q"], N0=w["N"], R0=w["R"],
                          H0=0 * I2, eta0=zero),
        minors=[MinorTypeParams(Ak=-I2, Fk=0 * I2, Gk=0 * I2, Bk=I2, bk=zero,
                                sigmak=I2, Qhatk=I2, Qk=I2, Nk=0 * I2, Rk=I2,
                                Hk=0 * I2, Hhatk=0 * I2, etak=zero)],
        pi=[1.0], grid=TimeGrid(1.0, 4),
    )
    one = validate_convexity(single)
    both = validate_problem(game)
    assert one.ok is both.ok is convex
    major = [(c.name[len("major "):], c.passed) for c in both.checks
             if c.name.startswith("major ")]
    assert major == [(c.name, c.passed) for c in one.checks]


# --------------------------------------------------------- mean-field blocks


def test_mf_single_type_collapses():
    p = one_type_problem(n=2)
    mf = build_mean_field_matrices(p)
    np.testing.assert_array_equal(mf.Abar.values[0], p.minors[0].Ak + p.minors[0].Fk)
    np.testing.assert_array_equal(mf.Gbar.values[0], p.minors[0].Gk)


def test_mf_block_diagonal_without_coupling():
    p = decoupled_toy(M=20)
    mf = build_mean_field_matrices(p)
    n = p.n
    np.testing.assert_array_equal(mf.Abar.values[0][:n, :n], p.minors[0].Ak)
    np.testing.assert_array_equal(mf.Abar.values[0][n:, n:], p.minors[1].Ak)
    assert not np.any(mf.Abar.values[0][:n, n:])
    assert not np.any(mf.Abar.values[0][n:, :n])


def test_mf_shapes_two_types():
    p = coupled_toy(M=20)
    mf = build_mean_field_matrices(p)
    n, K = p.n, p.K
    assert mf.Abar.shape == (n * K, n * K)
    assert mf.Gbar.shape == (n * K, n)


def test_selector_and_replication():
    e1 = selector(1, 2, 3)
    assert e1.shape == (2, 6)
    np.testing.assert_array_equal(e1[:, 2:4], np.eye(2))
    assert not np.any(e1[:, :2]) and not np.any(e1[:, 4:])
    F = np.array([[1.0, 2.0], [3.0, 4.0]])
    rep = replicate_pi(F, np.array([0.25, 0.75]))
    np.testing.assert_array_equal(rep[:, :2], 0.25 * F)
    np.testing.assert_array_equal(rep[:, 2:], 0.75 * F)


# ----------------------------------------------------------- extended major


def test_extended_major_shapes_and_blocks():
    p = coupled_toy(M=20)
    mf = build_mean_field_matrices(p)
    ext = build_extended_major(p, mf)
    n, K = p.n, p.K
    d = n + n * K
    assert ext.dim == d
    A = ext.A.interp(0.0)
    np.testing.assert_array_equal(A[:n, :n], p.major.A0)
    np.testing.assert_array_equal(A[:n, n:], replicate_pi(p.major.F0, p.pi))
    np.testing.assert_array_equal(A[n:, :n], mf.Gbar.values[0])
    np.testing.assert_array_equal(A[n:, n:], mf.Abar.values[0])
    np.testing.assert_array_equal(ext.B[:n], p.major.B0)
    assert not np.any(ext.B[n:])


def test_extended_major_weights_no_coupling():
    # H0 = 0: Q0ext = diag(Q0, 0) and etabar0 = (Q0 eta0; 0)
    p = one_type_problem(n=2, H0=np.zeros((2, 2)), eta0=np.array([[1.0], [2.0]]))
    ext = build_extended_major(p, build_mean_field_matrices(p))
    n = 2
    np.testing.assert_array_equal(ext.Q[:n, :n], p.major.Q0)
    assert not np.any(ext.Q[:n, n:])
    assert not np.any(ext.Q[n:, :])
    np.testing.assert_array_equal(ext.eta[:n], p.major.Q0 @ p.major.eta0)
    assert not np.any(ext.eta[n:])


def test_extended_major_weights_psd():
    p = coupled_toy(M=20)
    ext = build_extended_major(p, build_mean_field_matrices(p))
    assert np.min(np.linalg.eigvalsh(ext.Q)) > -1e-12
    assert np.min(np.linalg.eigvalsh(ext.Qhat)) > -1e-12


def test_extended_major_deterministic():
    p = coupled_toy(M=20)
    a = build_extended_major(p, build_mean_field_matrices(p))
    b = build_extended_major(p, build_mean_field_matrices(p))
    np.testing.assert_array_equal(a.Q, b.Q)
    np.testing.assert_array_equal(a.A.interp(0.5), b.A.interp(0.5))
    np.testing.assert_array_equal(a.b.values, b.b.values)


# ----------------------------------------------------------- extended minor


def test_extended_minor_reduces_without_feedback():
    # Pi0 = 0, s0 = 0, N0 = 0: lower-right block is the raw extended drift
    p = one_type_problem(n=1, N0=np.zeros((1, 1)))
    mf = build_mean_field_matrices(p)
    ext0 = build_extended_major(p, mf)
    d0 = ext0.dim
    Pi0 = GridFunction.constant(p.grid, np.zeros((d0, d0)))
    s0 = GridFunction.constant(p.grid, np.zeros((d0, 1)))
    ext = build_extended_minor(p, 0, ext0, Pi0, s0)
    A = ext.A.interp(0.3)
    n = p.n
    np.testing.assert_allclose(A[n:, n:], ext0.A.interp(0.3), atol=1e-15)
    np.testing.assert_array_equal(A[:n, :n], p.minors[0].Ak)


def test_extended_minor_dimension():
    p = coupled_toy(M=20)
    mf = build_mean_field_matrices(p)
    ext0 = build_extended_major(p, mf)
    d0 = ext0.dim
    Pi0 = GridFunction.constant(p.grid, np.eye(d0))
    s0 = GridFunction.constant(p.grid, np.zeros((d0, 1)))
    ext = build_extended_minor(p, 1, ext0, Pi0, s0)
    assert ext.dim == 2 * p.n + p.n * p.K
    assert ext.B.shape == (ext.dim, p.m)
    np.testing.assert_array_equal(ext.B[:p.n], p.minors[1].Bk)
    assert not np.any(ext.B[p.n:])


def test_extended_minor_offset_carries_s0():
    p = coupled_toy(M=20)
    mf = build_mean_field_matrices(p)
    ext0 = build_extended_major(p, mf)
    d0 = ext0.dim
    Pi0 = GridFunction.constant(p.grid, np.zeros((d0, d0)))
    s_vec = np.arange(1.0, d0 + 1.0).reshape(d0, 1)
    s0 = GridFunction.constant(p.grid, s_vec)
    ext = build_extended_minor(p, 0, ext0, Pi0, s0)
    R0 = p.major.R0
    BRB = ext0.B @ np.linalg.solve(R0, ext0.B.T)
    expected = ext0.b.values[0] - BRB @ s_vec
    np.testing.assert_allclose(ext.b.values[0][p.n:], expected, atol=1e-14)


def test_extended_minor_uncoupled_top_right():
    p = decoupled_toy(M=20)
    mf = build_mean_field_matrices(p)
    ext0 = build_extended_major(p, mf)
    d0 = ext0.dim
    Pi0 = GridFunction.constant(p.grid, np.zeros((d0, d0)))
    s0 = GridFunction.constant(p.grid, np.zeros((d0, 1)))
    ext = build_extended_minor(p, 0, ext0, Pi0, s0)
    A = ext.A.interp(0.0)
    assert not np.any(A[:p.n, p.n:])


def test_each_record_carries_its_hautus_factor_and_r_inverse():
    # formed once from the primitive weights when the record is built
    p = coupled_toy(M=4)
    n = p.n
    major = build_extended_major(p, build_mean_field_matrices(p))
    d0 = major.dim
    minors = [build_extended_minor(p, k, major, GridFunction.zeros(p.grid, d0, d0),
                                   GridFunction.zeros(p.grid, d0)) for k in range(p.K)]
    T = np.hstack([np.eye(n), -replicate_pi(p.major.H0, p.pi)])
    agents = [(major, psd_sqrt(p.major.Q0) @ T, p.major.R0)]
    for mn, ext in zip(p.minors, minors):
        S = np.hstack([np.eye(n), -mn.Hk, -replicate_pi(mn.Hhatk, p.pi)])
        agents.append((ext, psd_sqrt(mn.Qk) @ S, mn.Rk))
    for ext, factor, R in agents:
        assert np.array_equal(ext.Q_factor, factor)
        np.testing.assert_allclose(ext.Q_factor.T @ ext.Q_factor, ext.Q, atol=1e-14)
        assert np.array_equal(ext.Rinv, spd_solver(R)(np.eye(p.m)))


# ------------------------------------------------------------ block slicing


def test_extract_identity():
    n, K = 2, 3
    d = 2 * n + n * K
    P11, P12, P13 = extract_pi_blocks(np.eye(d), n, K)
    np.testing.assert_array_equal(P11, np.eye(n))
    assert not np.any(P12)
    assert not np.any(P13)


def test_extract_shapes_and_reassembly():
    n, K = 2, 3
    d = 2 * n + n * K
    rng = np.random.default_rng(3)
    P = rng.normal(size=(d, d))
    P11, P12, P13 = extract_pi_blocks(P, n, K)
    assert P11.shape == (n, n) and P12.shape == (n, n) and P13.shape == (n, n * K)
    np.testing.assert_array_equal(np.hstack([P11, P12, P13]), P[:n])


def test_extract_rejects_wrong_shape():
    with pytest.raises(DimensionGuardError):
        extract_pi_blocks(np.eye(5), 2, 3)


def test_split_cross_blocks():
    n, K, m = 1, 2, 1
    Nk = np.arange(4.0).reshape(2 * n + n * K, m)
    n11, n21, n31 = split_cross_blocks(Nk, n, K)
    np.testing.assert_array_equal(n11, [[0.0]])
    np.testing.assert_array_equal(n21, [[1.0]])
    np.testing.assert_array_equal(n31, [[2.0], [3.0]])


def test_problem_rejects_shape_mismatch():
    p = coupled_toy(M=20)
    with pytest.raises(SchemaError):
        MmMfgProblem(
            major=MajorParams(
                A0=np.eye(2), F0=np.eye(2), B0=np.ones((2, 1)),
                b0=np.zeros((2, 1)), sigma0=np.eye(2), Qhat0=np.eye(2),
                Q0=np.eye(2), N0=np.ones((3, 1)), R0=[[1.0]],
                H0=np.eye(2), eta0=np.zeros((2, 1)),
            ),
            minors=p.minors, pi=p.pi, grid=p.grid,
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_values_rejected_by_the_shared_validators(bad):
    p = coupled_toy(M=20)
    Q0 = p.major.Q0.copy()
    Q0[0, 1] = bad
    R0 = np.array([[bad]])
    eta = np.array([[bad], [0.0]])
    b_vals = p.minors[0].bk.values.copy()
    b_vals[7, 1, 0] = bad
    cases = [
        dataclasses.replace(p.major, Q0=Q0),
        dataclasses.replace(p.major, R0=R0),
        dataclasses.replace(p.major, eta0=eta),
    ]
    for major in cases:
        with pytest.raises(SchemaError, match="non-finite"):
            dataclasses.replace(p, major=major)
    bad_minor = dataclasses.replace(p.minors[0], bk=GridFunction(p.grid, b_vals))
    with pytest.raises(SchemaError, match="non-finite"):
        dataclasses.replace(p, minors=[bad_minor, p.minors[1]])
    with pytest.raises(SchemaError):
        dataclasses.replace(p, pi=[0.5, bad])
    with pytest.raises(SchemaError):
        dataclasses.replace(p, rho=bad)
    with pytest.raises(SchemaError):
        TimeGrid(bad, 10)
    with pytest.raises(SchemaError):
        FixedPointConfig(tol=bad)


def test_records_default_omitted_fields_to_zeros_and_name_missing_ones():
    grid = TimeGrid(1.0, 4)
    lqg = dict(A=[[0.1, 0.0], [0.0, 0.2]], B=[[1.0], [0.0]], Q=np.eye(2),
               R=[[1.0]], Qhat=np.eye(2), grid=grid)
    p = LqgProblem(**lqg)
    for name, shape in [("N_cross", (2, 1)), ("eta", (2, 1)), ("n_lin", (1, 1)),
                        ("x0", (2, 1))]:
        assert np.array_equal(getattr(p, name), np.zeros(shape)), name
    assert np.array_equal(p.b.values, np.zeros((5, 2, 1)))
    assert np.array_equal(p.sigma.values, np.zeros((5, 2, 1)))
    del lqg["R"]
    with pytest.raises(SchemaError) as exc:
        LqgProblem(**lqg)
    assert exc.value.field == "R"

    g = decoupled_toy(M=4)
    assert np.array_equal(g.major.F0, np.zeros((2, 2)))
    assert np.array_equal(g.minors[1].etak, np.zeros((2, 1)))
    # an omitted noise matrix takes the major's noise width r
    quiet = dataclasses.replace(g.minors[0], sigmak=None)
    g2 = dataclasses.replace(g, minors=[quiet, g.minors[1]])
    assert np.array_equal(g2.minors[0].sigmak, np.zeros((2, g.r)))
    # a drift may be given as one column per node
    samples = np.arange(10.0).reshape(5, 2)
    g3 = dataclasses.replace(g, major=dataclasses.replace(g.major, b0=samples))
    assert np.array_equal(g3.major.b0.values[:, :, 0], samples)
    with pytest.raises(SchemaError) as exc:
        dataclasses.replace(g, minors=[g.minors[0], MinorTypeParams(Ak=np.eye(2))])
    assert exc.value.field == "minors[1].Bk"
