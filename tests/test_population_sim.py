import ast
import dataclasses
import functools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmlqg import population_sim
from mmlqg.errors import (
    DivergedPathError,
    IntegrationDivergedError,
    SchemaError,
)
from mmlqg.mfg_solver import (
    FixedPointConfig,
    solve_consistency_finite,
)
from mmlqg.numerics import GridFunction, TimeGrid, matvec_rows
from mmlqg.lqg_single import _homogeneous, _policy_quadratic
from mmlqg.population_sim import (
    CostReport,
    PopulationConfig,
    ReducedPopulation,
    _draws,
    assign_types,
    discrete_chain_cost,
    expected_cost_exact,
    mean_field_convergence_study,
    simulate_population,
)
from mmlqg.toys import coupled_toy
from oracles import (DenseJointSystem, _stream, empirical_mean_field, finite_cost_monte_carlo,
                     held_noise, mean_field_trajectory, mean_square_deviation_monte_carlo,
                     one_chain_cost, undeviated_cost)
from test_fixed_point_property import random_game


@pytest.fixture(scope="module")
def coupled():
    return _coupled_at((0.6, 0.4))


@functools.lru_cache(maxsize=None)
def _coupled_at(pi):
    """coupled_toy at M = 100 with the type fractions pi, solved."""
    p = dataclasses.replace(coupled_toy(M=100), pi=list(pi))
    return p, solve_consistency_finite(p)


def _zero_noise(M=100):
    # deterministic variant: no diffusion, agents start exactly at zero
    p = coupled_toy(M=M)
    p.major.sigma0 = np.zeros_like(p.major.sigma0)
    for mn in p.minors:
        mn.sigmak = np.zeros_like(mn.sigmak)
    p.init_cov_major = np.zeros_like(p.init_cov_major)
    p.init_cov_minor = np.zeros_like(p.init_cov_minor)
    return p


@pytest.fixture(scope="module")
def zero_noise():
    p = _zero_noise()
    return p, solve_consistency_finite(p)


def test_all_zero_problem_gives_zero_states_and_controls():
    p = _zero_noise()
    zero_path = GridFunction(p.grid, np.zeros((p.grid.num_nodes, p.n, 1)))
    p.major.b0 = zero_path
    p.major.eta0 = np.zeros_like(p.major.eta0)
    p.major.N0 = np.zeros_like(p.major.N0)
    for mn in p.minors:
        mn.bk = zero_path
        mn.etak = np.zeros_like(mn.etak)
        mn.Nk = np.zeros_like(mn.Nk)
    sol = solve_consistency_finite(p)
    b = simulate_population(p, sol, PopulationConfig(N=5, num_paths=2))
    assert np.array_equal(b.states, np.zeros_like(b.states))
    assert np.array_equal(b.empirical_types, np.zeros_like(b.empirical_types))
    assert np.array_equal(b.xbar, np.zeros_like(b.xbar))
    # the oracle forms the controls from the laws; with R > 0 the cost is
    # zero only if every control is
    rep = finite_cost_monte_carlo(p, sol, b, 0)
    assert rep.value == 0.0 and rep.std_error == 0.0


def test_same_master_seed_gives_bit_identical_bundles(coupled):
    p, sol = coupled
    cfg = PopulationConfig(N=7, master_seed=42, num_paths=3)
    a = simulate_population(p, sol, cfg)
    b = simulate_population(p, sol, cfg)
    for f in ("states", "xbar", "empirical_types"):
        assert np.array_equal(getattr(a, f), getattr(b, f))


def test_different_master_seed_changes_paths(coupled):
    p, sol = coupled
    a = simulate_population(p, sol, PopulationConfig(N=4, master_seed=0))
    b = simulate_population(p, sol, PopulationConfig(N=4, master_seed=1))
    assert not np.array_equal(a.states, b.states)


def test_internal_mean_field_equals_trajectory_same_integrator(coupled):
    # the x bar consumed by the laws is exactly the trajectory recomputed
    # from the simulated major path and type means on the aggregate
    # record's xbar rows, the simulator's own integrator; and it is the
    # explicit Euler step of the mean-field law up to roundoff
    p, sol = coupled
    n, K, h = p.n, p.K, p.grid.h
    b = simulate_population(p, sol, PopulationConfig(N=6, master_seed=9))
    rs = ReducedPopulation(p, sol, b.counts, None)
    F = rs.drift(closed=True)
    xb = slice(rs.xb_off, rs.xb_off + n * K)
    Ab, Gb, mb = (f.values for f in (sol.mf_law.Abar, sol.mf_law.Gbar, sol.mf_law.mbar))
    y = np.zeros(rs.D + 1)
    y[-1] = 1.0
    record, law = [y[xb].copy()], [y[xb].copy()]
    for j in range(p.grid.num_steps):
        x0 = b.states[0][j, 0]
        y[:n] = x0
        for k, o in enumerate(rs.S_off):
            if o is not None:
                y[o:o + n] = b.empirical_types[0, j, k * n:(k + 1) * n]
        y[xb] += h * matvec_rows(F[j], y)[xb]
        record.append(y[xb].copy())
        law.append(law[-1] + h * (Ab[j] @ law[-1] + Gb[j] @ x0 + mb[j][:, 0]))
    assert np.max(np.abs(np.array(record) - b.xbar[0])) == 0.0
    assert np.max(np.abs(np.array(law) - b.xbar[0])) <= 1e-15


def test_trajectory_integrators_differ_at_step_scale(coupled):
    p, sol = coupled
    b = simulate_population(p, sol, PopulationConfig(N=6, master_seed=9))
    x0_path = GridFunction(p.grid, b.states[0][:, 0, :, None])
    d = b.xbar[0] - mean_field_trajectory(sol, x0_path).values[:, :, 0]
    gap = np.max(np.abs(d))
    assert 1e-6 < gap < 1e-1


def test_zero_noise_population_tracks_mean_field(zero_noise):
    # deterministic agents collapse onto the mean field whenever the
    # empirical fractions match pi exactly (N divisible by 5 here)
    p, sol = zero_noise
    st = mean_field_convergence_study(p, sol, [5, 10])
    for _, rms in st.rows:
        assert rms < 1e-8


def test_monte_carlo_cost_zero_noise_matches_exact(zero_noise):
    p, sol = zero_noise
    cfg = PopulationConfig(N=5, master_seed=0, num_paths=2)
    b = simulate_population(p, sol, cfg)
    for agent in (0, 1, 5):
        mc = finite_cost_monte_carlo(p, sol, b, agent)
        ex = expected_cost_exact(p, sol, cfg, agent)
        assert mc.std_error == 0.0
        assert abs(mc.value - ex.value) < 1e-8
        assert ex.std_error == 0.0 and ex.method == "moment_recursion"


def test_monte_carlo_cost_matches_exact_within_three_se(coupled):
    p, sol = coupled
    cfg = PopulationConfig(N=8, master_seed=11, num_paths=256)
    b = simulate_population(p, sol, cfg)
    for agent in (0, 1, 8):
        mc = finite_cost_monte_carlo(p, sol, b, agent)
        ex = expected_cost_exact(p, sol, cfg, agent)
        assert mc.std_error > 0.0
        assert abs(mc.value - ex.value) <= 3.0 * mc.std_error


def test_chain_cost_on_dense_node_tables_reproduces_expected_cost(coupled):
    # the dense oracle's node tables, closed on the deviator's own law
    p, sol = coupled
    cfg = PopulationConfig(N=4, master_seed=0)
    for agent in (0, 3):
        J = undeviated_cost(DenseJointSystem(p=p, sol=sol, cfg=cfg, deviator=agent))
        ref = expected_cost_exact(p, sol, cfg, agent).value
        assert J == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_chain_divergence_is_reported_at_its_first_non_finite_node(coupled):
    # a drift far too fast for h: each Euler step scales the chain's
    # second moment by about (h 1e100)^2 = 1e196, so it stays finite after
    # the first step and overflows in the second; the recursion must name
    # node 2 rather than return garbage
    p, sol = coupled
    for agent in (0, 1):
        _, *key = population_sim._agent_key(p, PopulationConfig(N=4), agent)
        rs = population_sim.ReducedPopulation(p, sol, *key)
        with pytest.raises(IntegrationDivergedError,
                           match="moment recursion diverged at node 2") as exc, \
                np.errstate(over="ignore", invalid="ignore"):
            population_sim.chain_costs(population_sim._stacked([rs], ("Kz_nodes",)),
                                       1e100 * rs.drift(closed=True)[:, None])
        assert type(exc.value) is IntegrationDivergedError
        assert (exc.value.node, exc.value.time) == (2, p.grid.nodes[2])
    # the same chain by hand, on one state with mean 1 and variance 1:
    # E x_1^2 = 2e198
    grid = TimeGrid(1.0, 10)
    F = _homogeneous(np.full((11, 1, 1), 1e100), 0.0)
    zeros = np.zeros((2, 2))
    with pytest.raises(IntegrationDivergedError) as exc, np.errstate(over="ignore"):
        one_chain_cost(grid, 0.0, np.array([[2.0, 1.0], [1.0, 1.0]]), F, zeros,
                       np.zeros((11, 2, 2)), zeros)
    assert (exc.value.node, exc.value.time) == (2, grid.nodes[2])


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_chain_cost_matches_the_scalar_mean_variance_recursion(rho):
    # the Euler chain x_{j+1} = (1 + h a) x_j + h b + sqrt(h) sigma xi of
    # the scalar affine OU loop, costed by hand from its mean and variance
    # recursions: the trapezoid sum of (1/2) e^{-rho t} (q E x^2 + 2 l E x
    # + c) and (1/2) e^{-rho T} qhat E x_T^2.  discrete_chain_cost reads
    # the same loop as F = [[a, b], [0, 0]] and W = [[q, l], [l, c]] on
    # z = (x; 1), and must match to roundoff
    a, b, sigma, x0, v0, q, l, c, qhat = -0.7, 0.6, 0.4, 1.3, 0.2, 2.0, -0.9, 0.5, 0.8
    grid = TimeGrid(1.5, 40)
    h, M = grid.h, grid.num_steps
    mean, var = [x0], [v0]
    for _ in range(M):
        mean.append((1.0 + h * a) * mean[-1] + h * b)
        var.append((1.0 + h * a) ** 2 * var[-1] + h * sigma ** 2)
    mean, var = np.array(mean), np.array(var)
    disc = np.exp(-rho * grid.nodes)
    weights = np.full(M + 1, h)
    weights[[0, M]] = 0.5 * h
    second = var + mean ** 2
    J = 0.5 * np.sum(weights * disc * (q * second + 2.0 * l * mean + c)) \
        + 0.5 * disc[M] * qhat * second[M]
    got = one_chain_cost(grid, rho, np.array([[v0 + x0 ** 2, x0], [x0, 1.0]]),
                         _homogeneous(np.full((M + 1, 1, 1), a), np.full((M + 1, 1, 1), b)),
                         _homogeneous([[sigma ** 2]], 0.0),
                         np.broadcast_to([[q, l], [l, c]], (M + 1, 2, 2)),
                         _homogeneous([[qhat]], 0.0))
    assert got == pytest.approx(J, rel=1e-13, abs=0.0)


def test_stacked_chains_round_as_alone_and_name_the_first_diverging_member(coupled):
    # chains of one dimension, stacked on a member axis after the node
    # axis, cost bit for bit what each costs alone; a divergence names the
    # lowest-index member that left the finite range, at its own first
    # non-finite node, after the loop has run every node
    p, sol = coupled
    records, keys = [], ((4, 1), (4, 2), (7, 1), (30, 2))
    for N, agent in keys:
        _, *key = population_sim._agent_key(p, PopulationConfig(N=N), agent)
        records.append(population_sim.ReducedPopulation(p, sol, *key))
    chains = []
    for rs in records:
        w = rs.weights
        W = _policy_quadratic(w["Q"], w["N"], w["R"], w["eta"], w["nbar"], rs.c0, rs.Kz_nodes)
        chains.append((rs.Z0, rs.drift(closed=True), rs.S, W, _homogeneous(w["Qhat"], 0.0)))

    def stacked(chains):
        Z0, F, S, W, W_T = zip(*chains)
        return discrete_chain_cost(p.grid, p.rho, np.stack(Z0), np.stack(F, 1), np.stack(S),
                                   np.stack(W, 1), np.stack(W_T))

    alone = [one_chain_cost(p.grid, p.rho, *chain) for chain in chains]
    together = stacked(chains)
    assert together.shape == (4,) and together.tolist() == alone
    assert alone == [expected_cost_exact(p, sol, PopulationConfig(N=N), agent).value
                     for N, agent in keys]
    # members 1 and 3 diverge: member 3 at node 2, and member 1, its drift
    # too fast from node 2 on, at node 4 (one step of 1e100 h stays finite)
    fast = [list(chain) for chain in chains]
    fast[1][1] = fast[1][1].copy()
    fast[1][1][2:] *= 1e100
    fast[3][1] = 1e100 * fast[3][1]
    with pytest.raises(IntegrationDivergedError,
                       match="moment recursion diverged at node 4") as exc, \
            np.errstate(over="ignore", invalid="ignore"):
        stacked(fast)
    assert (exc.value.member, exc.value.node, exc.value.time) == (1, 4, p.grid.nodes[4])


def test_same_type_agents_have_equal_exact_cost(coupled):
    p, sol = coupled
    cfg = PopulationConfig(N=8, master_seed=0)
    b = simulate_population(p, sol, cfg)
    assert b.type_of[0] == b.type_of[7]
    j1 = expected_cost_exact(p, sol, cfg, 1).value
    j8 = expected_cost_exact(p, sol, cfg, 8).value
    assert abs(j1 - j8) < 1e-10


def test_standard_error_shrinks_like_sqrt_paths(coupled):
    p, sol = coupled
    bA = simulate_population(p, sol, PopulationConfig(N=4, master_seed=5, num_paths=64))
    bB = simulate_population(p, sol, PopulationConfig(N=4, master_seed=5, num_paths=128))
    for agent in (0, 1):
        ratio = finite_cost_monte_carlo(p, sol, bA, agent).std_error \
            / finite_cost_monte_carlo(p, sol, bB, agent).std_error
        assert 1.2 <= ratio <= 1.7


def test_exact_cost_step_halving_is_first_order():
    # the exact value carries the simulator's O(h) bias, so successive
    # halvings shrink the change by about two
    vals = {}
    for M in (100, 200, 400):
        p = coupled_toy(M=M)
        sol = solve_consistency_finite(p)
        cfg = PopulationConfig(N=4, master_seed=0)
        vals[M] = expected_cost_exact(p, sol, cfg, 1).value
    ratio = (vals[100] - vals[200]) / (vals[200] - vals[400])
    assert 1.5 <= ratio <= 3.0


def test_zero_weight_cost_is_exactly_zero(coupled):
    p, sol = coupled
    pz = coupled_toy(M=100)
    pz.minors[0].Qk = np.zeros_like(pz.minors[0].Qk)
    pz.minors[0].Nk = np.zeros_like(pz.minors[0].Nk)
    pz.minors[0].Rk = np.zeros_like(pz.minors[0].Rk)
    pz.minors[0].Qhatk = np.zeros_like(pz.minors[0].Qhatk)
    cfg = PopulationConfig(N=4, master_seed=0)
    rep = expected_cost_exact(pz, sol, cfg, 1)
    assert rep.value == 0.0


def test_sup_gap_shrinks_from_n16_to_n1024(coupled):
    p, sol = coupled
    for seed in (0, 1):
        gaps = {}
        for N in (16, 1024):
            cfg = PopulationConfig(N=N, master_seed=seed, record_states=False)
            b = simulate_population(p, sol, cfg)
            gaps[N] = np.max(np.abs(b.empirical_types[0] - b.xbar[0]))
        assert gaps[1024] < gaps[16]


def test_study_slope_is_square_root_rate(coupled):
    p, sol = coupled
    st = mean_field_convergence_study(p, sol, [16, 64, 256, 1024])
    assert abs(st.slope + 0.5) <= 0.15
    rms = [r for _, r in st.rows]
    assert all(rms[i + 1] < rms[i] for i in range(len(rms) - 1))


def test_empirical_mean_field_aggregation_properties(zero_noise):
    p, sol = zero_noise
    # one agent per type: the average is that agent's own path
    cfg = PopulationConfig(N=2, master_seed=0)
    b = simulate_population(p, sol, cfg)
    assert b.type_of.tolist() == [0, 1]
    emf = empirical_mean_field(b)[0]
    n = p.n
    assert np.array_equal(emf.values[:, :n, 0], b.states[0][:, 1, :])
    assert np.array_equal(emf.values[:, n:, 0], b.states[0][:, 2, :])
    # two identical deterministic agents: the average equals either one;
    # pi = [0.8, 0.2] puts both minors of N = 2 in type 0
    p2 = dataclasses.replace(_zero_noise(), pi=[0.8, 0.2])
    b2 = simulate_population(p2, solve_consistency_finite(p2), cfg)
    assert b2.type_of.tolist() == [0, 0]
    emf2 = empirical_mean_field(b2)[0]
    assert np.array_equal(b2.states[0][:, 1, :], b2.states[0][:, 2, :])
    assert np.array_equal(emf2.values[:, :n, 0], b2.states[0][:, 1, :])
    # the empty second type is reported as a zero block
    assert np.array_equal(emf2.values[:, n:, 0], np.zeros_like(emf2.values[:, n:, 0]))


def test_empirical_mean_field_permutation_invariant(coupled):
    p, sol = coupled
    b = simulate_population(p, sol, PopulationConfig(N=6, master_seed=4))
    same_type = np.flatnonzero(b.type_of == b.type_of[0])[:2]
    perm = np.arange(b.N)
    perm[same_type[0]], perm[same_type[1]] = same_type[1], same_type[0]
    swapped = b.states.copy()
    swapped[:, :, 1:, :] = swapped[:, :, 1 + perm, :]
    b2 = dataclasses.replace(b, states=swapped)
    before = empirical_mean_field(b)[0].values
    after = empirical_mean_field(b2)[0].values
    assert np.allclose(before, after, rtol=0.0, atol=1e-13)


def test_type_assignment_tracks_pi_and_is_prefix_stable():
    pi = np.array([0.6, 0.4])
    for N in (1, 2, 5, 8, 13, 100):
        ta = assign_types(pi, N)
        counts = np.bincount(ta, minlength=2)
        assert counts.sum() == N
        assert np.all(np.abs(counts - N * pi) <= 1.0)
    assert np.array_equal(assign_types(pi, 8), assign_types(pi, 16)[:8])


def _assign_types_one_by_one(pi, N):
    # the rule itself, one agent at a time
    pi = np.asarray(pi, dtype=float)
    counts = np.zeros(pi.shape[0])
    out = np.empty(N, dtype=np.int64)
    for i in range(1, N + 1):
        k = int(np.argmax(pi * i - counts))
        out[i - 1] = k
        counts[k] += 1.0
    return out


def test_type_assignment_matches_the_one_by_one_rule():
    rng = np.random.default_rng(0)
    pis = [[1.0], [0.6, 0.4], [0.5, 0.5], [0.1, 0.9], [1 / 3, 2 / 3],
           [0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]]
    pis += [rng.dirichlet(np.ones(K)) for K in (2, 2, 3, 4)]
    for pi in pis:
        for N in (1, 2, 7, 100, 5000):
            assert np.array_equal(assign_types(pi, N),
                                  _assign_types_one_by_one(pi, N)), (pi, N)


def test_diverged_path_reports_path_and_node(coupled, monkeypatch):
    p, sol = coupled
    bad = coupled_toy(M=100)
    bad.major.A0 = np.array([[1e6, 0.0], [0.0, 1e6]])

    def report(num_paths):
        with pytest.raises(DivergedPathError) as exc:
            simulate_population(bad, sol, PopulationConfig(N=3, master_seed=0,
                                                           num_paths=num_paths))
        return exc.value.path, exc.value.node

    path, node = report(1)
    assert path == 0
    assert node is not None
    # stacked paths name the same path and node, in one stack or one by one
    assert report(3) == (path, node)
    monkeypatch.setattr(population_sim, "DRAW_BUDGET", 1)
    assert report(3) == (path, node)


def test_outputs_do_not_depend_on_how_paths_and_seeds_are_stacked(coupled, monkeypatch):
    p, sol = coupled
    cfg = PopulationConfig(N=7, master_seed=3, num_paths=3)
    fields = ("states", "xbar", "empirical_types")
    assert len(population_sim._chunks(p, 7, 3)) == 1
    stacked = simulate_population(p, sol, cfg)
    one = simulate_population(p, sol, dataclasses.replace(cfg, num_paths=1))
    for f in fields:
        assert np.array_equal(getattr(one, f)[0], getattr(stacked, f)[0])
    # a budget of one byte leaves one path per stack
    monkeypatch.setattr(population_sim, "DRAW_BUDGET", 1)
    assert len(population_sim._chunks(p, 7, 3)) == 3
    single = simulate_population(p, sol, cfg)
    for f in fields:
        assert np.array_equal(getattr(single, f), getattr(stacked, f))


@pytest.mark.parametrize("budget", [None, 1], ids=["one_stack", "one_path_a_stack"])
@pytest.mark.parametrize("pi, types", [((0.6, 0.4), [0, 1, 0, 1, 0, 0]),
                                       ((0.0, 1.0), [1, 1, 1])],
                         ids=["interleaved", "empty_type"])
def test_each_steps_noise_is_the_held_noise_bit_for_bit(monkeypatch, pi, types, budget):
    """The noise formed when a step is taken equals, at every step, what
    was once sampled for all steps up front, whatever the stacking."""
    p, sol = _coupled_at(pi)
    assert assign_types(p.pi, len(types)).tolist() == types
    M = p.grid.num_steps
    if budget is not None:
        monkeypatch.setattr(population_sim, "DRAW_BUDGET", budget)
    formed, form = [], population_sim._Population.noise

    def spy(pop, dW, sigma, j):
        out = form(pop, dW, sigma, j)
        formed.append((j, out))
        return out

    monkeypatch.setattr(population_sim._Population, "noise", spy)
    simulate_population(p, sol, PopulationConfig(N=len(types), master_seed=11, num_paths=2))
    cols = [np.flatnonzero(np.array(types) == k) for k in range(p.K)]
    noise0, noise = held_noise(p, [(11, 0), (11, 1)], [1 + c for c in cols])
    assert len(formed) == (2 if budget else 1) * M
    for i, (j, (w0, w)) in enumerate(formed):
        paths = slice(i // M, i // M + 1) if budget else slice(None)
        assert j == i % M
        assert w.shape == (1 if budget else 2, p.n, len(types))
        for got, want in [(w0, noise0[paths, j])] + [(w.take(cols[k], -1), noise[k][paths, j])
                                                      for k in range(p.K)]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_one_batched_stepper_and_no_loop_over_agents():
    """Paths advance through one stepper, called by the simulator alone;
    no Python loop runs over agents, the draws' included."""
    tree = ast.parse(Path(population_sim.__file__).read_text())
    pop = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "_Population")
    methods = {node.name for node in pop.body if isinstance(node, ast.FunctionDef)}
    assert not methods & {"start", "run_path"}
    callers, agent_loops = [], []

    def over_agents(expr):
        # a range over an agent count, or an array with an agent axis
        names = {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
        counts = {n.id for call in ast.walk(expr) if isinstance(call, ast.Call)
                  and getattr(call.func, "id", None) == "range"
                  for arg in call.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
        return bool(counts & {"N", "count"} or names & {"type_of", "ix", "xi", "dW"})

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "advance":
            callers.append(where)
        if isinstance(node, (ast.For, ast.comprehension)) and over_agents(node.iter):
            agent_loops.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    assert agent_loops == []
    for f in Path(population_sim.__file__).parent.glob("*.py"):
        if f.stem != "population_sim":
            visit(ast.parse(f.read_text()), None)
    assert callers == ["simulate_population"]


def test_agent_id_and_config_validation(coupled):
    p, sol = coupled
    cfg = PopulationConfig(N=3, master_seed=0)
    b = simulate_population(p, sol, cfg)
    with pytest.raises(SchemaError):
        finite_cost_monte_carlo(p, sol, b, 4)
    with pytest.raises(SchemaError):
        expected_cost_exact(p, sol, cfg, -1)
    with pytest.raises(SchemaError):
        PopulationConfig(N=0)
    with pytest.raises(SchemaError):
        PopulationConfig(N=2, num_paths=0)
    with pytest.raises(SchemaError):
        CostReport(agent_id=0, value=1.0, std_error=-1.0,
                   method="monte_carlo", num_paths=1)


def test_record_states_false_skips_arrays_but_keeps_fields(coupled):
    p, sol = coupled
    cfg = PopulationConfig(N=4, master_seed=1, record_states=False)
    b = simulate_population(p, sol, cfg)
    assert b.states is None
    assert b.xbar.shape == (1, p.grid.num_nodes, p.n * p.K)
    with pytest.raises(SchemaError):
        finite_cost_monte_carlo(p, sol, b, 0)
    emf = empirical_mean_field(b)[0]
    assert np.array_equal(emf.values[:, :, 0], b.empirical_types[0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.5])
@pytest.mark.parametrize("make", [
    lambda v: FixedPointConfig(max_iters=v),
    lambda v: PopulationConfig(N=v),
    lambda v: PopulationConfig(N=2, num_paths=v),
    lambda v: PopulationConfig(N=2, master_seed=v),
    lambda v: TimeGrid(1.0, v),
], ids=["max_iters", "N", "num_paths", "master_seed", "num_steps"])
def test_counts_reject_non_finite_and_non_integral_values(make, bad):
    # int() would raise an untyped error on inf and NaN and truncate 2.5
    with pytest.raises(SchemaError):
        make(bad)


def test_counts_keep_integral_floats_and_every_64_bit_seed():
    cfg = PopulationConfig(N=3.0, num_paths=np.int32(2), master_seed=2 ** 64 - 1)
    assert (cfg.N, cfg.num_paths, cfg.master_seed) == (3, 2, 2 ** 64 - 1)
    assert type(cfg.N) is int and type(cfg.num_paths) is int
    assert FixedPointConfig(max_iters=4.0).max_iters == 4
    with pytest.raises(SchemaError):
        PopulationConfig(N=2, master_seed=2 ** 64)


@pytest.mark.parametrize("shape", [(2,), (7, 3)])
@pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
@pytest.mark.parametrize("stream", [0, 1])
def test_draws_are_consecutive_blocks_of_one_stream(stream, seed, shape):
    rows = {}
    for path in (0, 3):
        got = _draws(seed, stream, path, 5, shape)
        gen = _stream(seed, stream, path)
        want = np.stack([gen.standard_normal(shape) for _ in range(5)])
        assert got.shape == (5,) + shape
        assert got.tobytes() == want.tobytes()
        # a shorter draw is the prefix of a longer one
        for count in (1, 2, 5):
            assert _draws(seed, stream, path, count, shape).tobytes() \
                == want[:count].tobytes()
        rows[path] = got
    # another path, or the other stream on the same path, draws other rows
    assert not np.any(rows[0] == rows[3])
    assert not np.any(rows[0] == _draws(seed, 1 - stream, 0, 5, shape))


def test_only_draws_builds_a_generator():
    """A generator per agent must not come back: the one Philox is built
    in _draws, outside any loop.  verify's fixture seeds one generator."""
    makers = {"Philox", "Generator", "default_rng", "SeedSequence", "PCG64",
              "PCG64DXSM", "MT19937", "SFC64", "RandomState"}
    found = []

    def visit(node, where, loops):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where, loops = node.name, 0
        elif isinstance(node, (ast.For, ast.While, ast.comprehension)):
            loops += 1
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name in makers:
                found.append((where, name, loops))
        for child in ast.iter_child_nodes(node):
            visit(child, where, loops)

    src = Path(population_sim.__file__).parent
    for f in sorted(src.glob("*.py")):
        visit(ast.parse(f.read_text()), f.stem, 0)
    assert sorted(found) == [("_draws", "Generator", 0), ("_draws", "Philox", 0),
                             ("_suite_euler_equality", "default_rng", 0)]


@functools.lru_cache(maxsize=None)
def _noisy_random_game(seed, n, m, K, pi):
    """random_game with the type fractions pi, noise and random initial
    states, solved."""
    p = dataclasses.replace(random_game(seed, n, m, K, 12, 1.0, 0.0), pi=list(pi))
    p.major.sigma0 = 0.3 * np.eye(n)
    for mn in p.minors:
        mn.sigmak = 0.3 * np.eye(n)
    p.init_cov_major = p.init_cov_minor = 0.2 * np.eye(n)
    return p, solve_consistency_finite(p)


@pytest.mark.parametrize("game, pi, types", [
    (None, (0.6, 0.4), [0, 1, 0, 1, 0, 0]), (None, (0.0, 1.0), [1, 1, 1]),
    (None, (0.6, 0.4), [0]), (None, (1.0, 0.0), [0, 0, 0, 0]),
    # the aggregate record's S offsets shift: an empty middle type at n = 3,
    # and n = 1
    ((0, 3, 2, 3), (0.4, 0.0, 0.6), [2, 0, 2, 0, 2]), ((1, 1, 1, 2), (0.2, 0.8), [1, 1, 0]),
], ids=["interleaved", "empty_type", "one_minor", "one_type_only", "n3_empty_middle_type",
        "n1"])
def test_agents_last_stepping_matches_the_dense_joint_oracle(game, pi, types):
    # the types are the game's own pi, set before the solve
    p, sol = _coupled_at(pi) if game is None else _noisy_random_game(*game, pi)
    assert assign_types(p.pi, len(types)).tolist() == types
    cfg = PopulationConfig(N=len(types), master_seed=11, num_paths=2)
    js = DenseJointSystem(p=p, sol=sol, cfg=cfg, deviator=0)
    assert js.validation_gap(num_paths=2) < 1e-10
    b = simulate_population(p, sol, cfg)
    assert np.array_equal(b.counts, np.bincount(types, minlength=p.K))
    for k in set(range(p.K)) - set(types):
        assert not b.empirical_types[:, :, k * p.n:(k + 1) * p.n].any()


def test_study_is_the_node_mean_of_a_noiseless_simulation(zero_noise, coupled):
    """Without noise one simulated path is the chain's mean, so the study's
    mean square deviation is that path's node mean, at N = 1 with an empty
    type too.  Compared squared: at N = 10 the exact value is 0, and the
    simulator's roundoff leaves an RMS of order 1e-12 there."""
    p, sol = zero_noise
    Ns = [1, 2, 7, 10]
    study = mean_field_convergence_study(p, sol, Ns)
    assert [N for N, _ in study.rows] == Ns
    assert np.bincount(assign_types(p.pi, 1), minlength=p.K).min() == 0
    for N, rms in study.rows:
        b = simulate_population(p, sol, PopulationConfig(N=N, record_states=False))
        dev = b.empirical_types[0] - b.xbar[0]
        assert abs(rms ** 2 - np.sum(dev * dev) / dev.shape[0]) <= 1e-14, N
    assert mean_field_convergence_study(p, sol, []).rows == []
    # a chain that leaves the finite range is a typed failure at its node
    bad = coupled_toy(M=100)
    bad.major.A0 = np.array([[1e6, 0.0], [0.0, 1e6]])
    with pytest.raises(IntegrationDivergedError, match="diverged at node") as exc:
        mean_field_convergence_study(bad, coupled[1], [4, 16])
    assert 1 <= exc.value.node <= bad.grid.num_steps


def test_study_agrees_with_monte_carlo_within_three_standard_errors():
    """The exact mean square deviation against its Monte Carlo estimate
    over 256 simulated paths, at a master seed fixed in advance."""
    p = coupled_toy(M=50)
    sol = solve_consistency_finite(p)
    Ns = [16, 64, 256]
    study = mean_field_convergence_study(p, sol, Ns)
    for N, rms in study.rows:
        mean, se = mean_square_deviation_monte_carlo(p, sol, N, master_seed=3, num_paths=256)
        assert se > 0.0
        assert abs(mean - rms ** 2) <= 3.0 * se, (N, (mean - rms ** 2) / se)


def test_study_slope_is_fitted_once_per_distinct_size(coupled):
    """A repeated N neither weights its point twice nor makes the fit
    rank-deficient: the slope is fitted over the distinct sizes."""
    p, sol = coupled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        repeated = mean_field_convergence_study(p, sol, [16, 16, 64, 256])
        once = mean_field_convergence_study(p, sol, [16, 64, 256])
        single = mean_field_convergence_study(p, sol, [16, 16])
    assert repeated.slope == once.slope
    assert repeated.rows == once.rows[:1] + once.rows
    assert single.slope == 0.0 and single.rows == once.rows[:1] * 2
