"""The numpy discounted ARE solver against scipy oracles.

solve_discounted_are finds Pi from the matrix sign function of the
Hamiltonian and polishes it with sign-function Lyapunov solves.  scipy
checks it from outside the package: solve_continuous_are on the shifted
drift, and oracles.schur_are, the Schur-method solver with the same polish
and gates that it replaced.
"""

import ast
import decimal
import itertools
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import mmlqg
from mmlqg import coupled_toy, lqg_single, solve_consistency_infinite
from mmlqg.errors import AreSolveError, MmlqgError
from mmlqg.lqg_single import psd_sqrt, solve_discounted_are
from oracles import schur_are


def _random_problem(seed):
    """A stabilizable, detectable (Q > 0) problem with a feasible cross term."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    A = rng.standard_normal((n, n)) * rng.choice([0.3, 1.0, 3.0])
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((n, n))
    Q = C.T @ C + 0.1 * np.eye(n)
    L = rng.standard_normal((m, m))
    R = L @ L.T + 0.1 * np.eye(m)
    # N = Q^{1/2} Z R^{1/2} with ||Z|| < 1 keeps Q - N R^{-1} N' positive definite
    Z = rng.standard_normal((n, m))
    Z *= 0.9 * rng.random() / np.linalg.norm(Z, 2)
    N = psd_sqrt(Q) @ Z @ psd_sqrt(R)
    rho = float(rng.choice([0.0, 0.5, 4.0]))
    return A, B, Q, N, R, rho


def _assert_matches_care(A, B, Q, N, R, rho):
    Pi = solve_discounted_are(A, B, Q, N, R, rho)
    ref = scipy.linalg.solve_continuous_are(
        A - 0.5 * rho * np.eye(A.shape[0]), B, Q, R, s=N)
    assert np.linalg.norm(Pi - ref) <= 1e-9 * np.linalg.norm(ref)


def test_are_matches_care_on_random_problems():
    # every one is solved: the gate scales with the residual's terms, so
    # roundoff at ||Pi|| up to 1.5e6 (seeds 3, 12, 29, 32) is no rejection
    for seed in range(40):
        _assert_matches_care(*_random_problem(seed))


def test_are_matches_care_on_coupled_toy_agents(monkeypatch):
    seen = []

    def recording(A, B, Q, N, R, rho, **kw):
        seen.append((A, B, Q, N, R, rho))
        return solve_discounted_are(A, B, Q, N, R, rho, **kw)

    monkeypatch.setattr(lqg_single, "solve_discounted_are", recording)
    solve_consistency_infinite(coupled_toy(M=4, rho=4.0))
    # the major and both minor types at every evaluation of the map
    assert len(seen) >= 3 and len(seen) % 3 == 0
    for args in seen:
        _assert_matches_care(*args)


def test_are_scalar_tiny_gain_huge_root():
    # a = 0, b = q = 1e-8, r = 1e8: Pi = sqrt(q r) / b = 1e8 exactly; the
    # Schur method returns 1.00000093e8 here
    Pi = solve_discounted_are(
        np.zeros((1, 1)), np.array([[1e-8]]), np.array([[1e-8]]),
        np.zeros((1, 1)), np.array([[1e8]]), 0.0)
    assert abs(Pi[0, 0] - 1e8) <= 1e-12 * 1e8


TINY = 5e-324  # the smallest subnormal double
GRID = list(itertools.product(
    (-1e3, -1.0, 0.0, 1.0, 1e3),            # a
    (TINY, 1e-8, 1.0, 1e8),                 # b
    (0.0, TINY, 1e-8, 1.0, 1e8),            # q
    (TINY, 1e-8, 1.0, 1e8),                 # r
    (0.0, 0.5),                             # N = c sqrt(q r)
    (0.0, 4.0),                             # rho
))


def _exact_scalar_root(a, b, q, N, r, rho):
    """Stabilizing root of (b^2/r) pi^2 + (2Nb/r - 2a + rho) pi + (N^2/r - q)
    = 0 in exact rational arithmetic, rounded once from 60 digits."""
    a, b, q, N, r, rho = map(Fraction, (a, b, q, N, r, rho))
    alpha, beta, gamma = b * b / r, 2 * N * b / r - 2 * a + rho, N * N / r - q
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        dec = lambda f: Decimal(f.numerator) / Decimal(f.denominator)
        margin = dec(beta * beta - 4 * alpha * gamma).sqrt()
        if beta > 0:   # the larger root, written without cancellation
            return float(-2 * dec(gamma) / (dec(beta) + margin))
        return float((margin - dec(beta)) / (2 * dec(alpha)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_are_scalar_corner_grid_keeps_schur_acceptance():
    """Every corner case the Schur solver solves clearly, the sign solver
    solves too: within 1e-8 of the Schur answer, or nearer the exact root
    than that answer is (tiny weights put it up to 7e-6 off).  Clearly
    means a Schur residual <= 1e-10 with residual terms
    q + |pi| (2|a| + rho) + (b^2/r) pi^2 <= 1e6."""
    checked = 0
    for a, b, q, r, c, rho in GRID:
        case = (a, b, q, r, c, rho)
        N = c * math.sqrt(q * r)
        args = [np.array([[v]]) for v in (a, b, q, N, r)] + [rho]
        try:
            Pi = solve_discounted_are(*args)
        except MmlqgError:   # any other error fails the test
            Pi = None
        try:
            ref, res = schur_are(*args)
        except (MmlqgError, np.linalg.LinAlgError, ValueError):
            continue
        ref = ref[0, 0]
        if res > 1e-10 or q + abs(ref) * (2.0 * abs(a) + rho) + b * b / r * ref * ref > 1e6:
            continue
        checked += 1
        assert Pi is not None, case
        if abs(Pi[0, 0] - ref) > 1e-8 * abs(ref):
            root = _exact_scalar_root(a, b, q, N, r, rho)
            assert abs(Pi[0, 0] - root) <= abs(ref - root), case
    assert checked > len(GRID) // 4


def test_are_gate_scales_with_the_residual_terms():
    # q = 1e8 puts the residual's terms far above the absolute gate 1e-9,
    # which roundoff alone failed in 103 of these 180 cases; the scaled
    # gate accepts the roundoff and still refuses the few inaccurate roots
    # (b^2/r = 1e-24, Pi near 1e24, relative residual near 1e-4)
    solved = 0
    for a, b, q, r, c, rho in GRID:
        if q != 1e8 or min(b, r) < 1e-8:
            continue
        N = c * math.sqrt(q * r)
        try:
            Pi = solve_discounted_are(*[np.array([[v]]) for v in (a, b, q, N, r)], rho)
        except AreSolveError:
            continue
        root = _exact_scalar_root(a, b, q, N, r, rho)
        assert abs(Pi[0, 0] - root) <= 1e-15 * abs(root), (a, b, q, r, c, rho)
        solved += 1
    assert solved >= 170


def test_are_singular_hamiltonian_is_an_are_error():
    # A = B = Q = 0: the Hamiltonian is zero and has no sign
    zero = np.zeros((2, 2))
    with pytest.raises(AreSolveError, match="singular"):
        solve_discounted_are(zero, zero, zero, zero, np.eye(2), 0.0)


def test_sign_helper_serves_only_the_are_and_its_polish():
    tree = ast.parse(Path(lqg_single.__file__).read_text())
    callers = [
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_matrix_sign"
    ]
    assert callers == ["solve_discounted_are", "solve_discounted_are"]
    pkg = Path(mmlqg.__file__).parent
    others = [path.name for path in pkg.glob("*.py")
              if path.name != "lqg_single.py" and "_matrix_sign" in path.read_text()]
    assert others == []
