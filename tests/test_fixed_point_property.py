"""The Anderson fixed-point solvers against a plain Picard reference.

Random small games (n, m, K <= 2, M <= 20) with stable drifts and mixed
coupling strengths.  The reference iterates x <- F(x) undamped to a
residual of 1e-12 on the same consistency map the solvers use; where it
converges, the solver's law and major Riccati solution must agree with it
within 1e-8.  Where it fails, the solver must raise the same typed error;
the one exception is a reference that runs out of its iteration budget,
which the accelerated solver may beat, and then only with a residual
below its tolerance.
"""

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mmlqg.errors import FixedPointError, MmlqgError
from mmlqg.mfg_model import MajorParams, MinorTypeParams, MmMfgProblem
from mmlqg.mfg_solver import (
    FixedPointConfig,
    _finite_map,
    _initial_law,
    _stationary_map,
    solve_consistency_finite,
    solve_consistency_infinite,
)
from mmlqg.numerics import TimeGrid, flatten

REF_TOL = 1e-12
SOLVER_TOL = 1e-10
AGREE = 1e-8


def random_game(seed, n, m, K, M, coupling, rho):
    rng = np.random.default_rng(seed)

    def mat(rows, cols, scale):
        return rng.normal(scale=scale, size=(rows, cols))

    def stable(d):
        return -0.5 * np.eye(d) + mat(d, d, 0.3)

    def spd(d, floor):
        L = mat(d, d, 0.5)
        return L @ L.T + floor * np.eye(d)

    major = MajorParams(
        A0=stable(n), F0=mat(n, n, coupling), B0=mat(n, m, 1.0),
        b0=mat(n, 1, 0.2), sigma0=np.zeros((n, n)), Qhat0=spd(n, 0.1),
        Q0=spd(n, 0.5), N0=mat(n, m, 0.05), R0=spd(m, 0.5),
        H0=mat(n, n, coupling), eta0=mat(n, 1, 0.3),
    )
    minors = [
        MinorTypeParams(
            Ak=stable(n), Fk=mat(n, n, coupling), Gk=mat(n, n, coupling),
            Bk=mat(n, m, 1.0), bk=mat(n, 1, 0.2), sigmak=np.zeros((n, n)),
            Qhatk=spd(n, 0.1), Qk=spd(n, 0.5), Nk=mat(n, m, 0.05),
            Rk=spd(m, 0.5), Hk=mat(n, n, coupling), Hhatk=mat(n, n, coupling),
            etak=mat(n, 1, 0.3),
        )
        for _ in range(K)
    ]
    w = rng.uniform(0.2, 1.0, size=K)
    return MmMfgProblem(major=major, minors=minors, pi=w / w.sum(),
                        grid=TimeGrid(1.0, M), rho=rho)


def picard(x0, evaluate, max_iters):
    """Undamped x <- F(x) until max|F(x) - x| < REF_TOL: (x, payload)."""
    x = x0
    history = []
    for _ in range(max_iters):
        fx, payload = evaluate(x)
        history.append(float(np.max(np.abs(fx - x))))
        if history[-1] < REF_TOL:
            return x, payload
        x = fx
    raise FixedPointError("reference did not converge", residual_history=history)


def outcome(fn):
    try:
        return fn(), None
    except MmlqgError as exc:
        return None, exc


def check_against_reference(ref, ref_err, solve, state_of):
    """ref is the reference (law vector, Pi0); state_of(sol) gives the solver's."""
    sol, err = outcome(solve)
    event("reference: %s, solver: %s" % (
        type(ref_err).__name__ if ref_err else "converged",
        type(err).__name__ if err else "converged"))
    if ref_err is None:
        assert err is None, "solver failed where the reference converged: %r" % err
        for got, want in zip(state_of(sol), ref):
            assert np.max(np.abs(got - want)) < AGREE
    elif isinstance(ref_err, FixedPointError) and err is None:
        # Picard ran out of budget; the accelerated solver may not have
        assert sol.report.residual < SOLVER_TOL
    else:
        assert type(err) is type(ref_err), (ref_err, err)
        if isinstance(err, FixedPointError):
            assert len(err.residual_history) >= 1


games = st.fixed_dictionaries({
    "seed": st.integers(0, 2**31 - 1),
    "n": st.integers(1, 2),
    "m": st.integers(1, 2),
    "K": st.integers(1, 2),
    "M": st.integers(4, 20),
    "coupling": st.sampled_from([0.1, 0.5, 1.5, 6.0]),
    "budget": st.sampled_from([200, 200, 200, 3]),
})

SETTINGS = dict(deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=20, **SETTINGS)
@given(games)
def test_finite_solver_matches_picard_reference(g):
    p = random_game(g["seed"], g["n"], g["m"], g["K"], g["M"], g["coupling"], 0.0)
    x0, evaluate = _finite_map(p, _initial_law(p))
    ref, ref_err = outcome(lambda: picard(x0, evaluate, g["budget"]))
    if ref is not None:
        ref = (ref[0], ref[1][2].values)
    check_against_reference(
        ref, ref_err,
        lambda: solve_consistency_finite(
            p, FixedPointConfig(tol=SOLVER_TOL, max_iters=g["budget"])),
        lambda sol: (flatten(sol.mf_law.Abar.values, sol.mf_law.Gbar.values,
                              sol.mf_law.mbar.values), sol.Pi0.values),
    )


@settings(max_examples=3, **SETTINGS)
@given(games, st.floats(6.0, 8.0))
def test_stationary_solver_matches_picard_reference(g, rho):
    # every evaluation solves K + 1 AREs by long sweeps, so few examples
    p = random_game(g["seed"], g["n"], g["m"], g["K"], g["M"], g["coupling"], rho)
    x0, evaluate = _stationary_map(p)
    ref, ref_err = outcome(lambda: picard(x0, evaluate, g["budget"]))
    if ref is not None:
        ref = (ref[0], ref[1][2])
    check_against_reference(
        ref, ref_err,
        lambda: solve_consistency_infinite(
            p, FixedPointConfig(tol=SOLVER_TOL, max_iters=g["budget"])),
        lambda sol: (flatten(sol.Abar, sol.Gbar, sol.mbar), sol.Pi0),
    )
