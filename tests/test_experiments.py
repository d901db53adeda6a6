"""Instance generation, bound verification, and the lemma suite."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from spc_lab import (
    InstanceSpec,
    NonconvexError,
    TreeError,
    build_tree_explicit,
    check_detectability,
    check_stabilizability,
    check_uniform_regularity,
    closed_loop_bound_check,
    compute_constants,
    eisse_check,
    generate_certified_instance,
    lemma_suite,
    open_loop_bound_check,
    regret_sweep,
    run_spc,
    stage_perturbation_moments,
)

from spc_lab import experiments
from spc_lab.cli import DEFAULT_SPEC, _points_pass, main
from spc_lab.controller import run_spc_windows
from spc_lab.experiments import PASS_SLACK, BoundPoint, BoundReport

from .helpers import depth_one_nonconvex_tree, nd_scalar, node_data, random_node_data, stack
from .oracles import NodeRow


def small_spec(**overrides):
    base = dict(
        n_x=2,
        n_u=1,
        T=4,
        branching=2,
        L=1.0,
        alpha=0.04,
        gamma=1.0,
        noise_scale=0.1,
        seed=5,
    )
    base.update(overrides)
    return InstanceSpec(**base)


@pytest.fixture(scope="module")
def noisy_instance():
    return generate_certified_instance(small_spec())


# ---------------------------------------------------------------------------
# InstanceSpec and generator


def test_spec_validation_rejects_bad_fields():
    for overrides in (
        {"n_x": 0},
        {"n_u": 0},
        {"T": 0},
        {"branching": 0},
        {"L": 0.5},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"gamma": 0.0},
        {"gamma": 3.0},
        {"noise_scale": -0.1},
        {"seed": -1},
    ):
        with pytest.raises(TreeError):
            small_spec(**overrides)


def test_generator_is_deterministic():
    a = generate_certified_instance(small_spec())
    b = generate_certified_instance(small_spec())
    assert np.array_equal(a.tree.pi, b.tree.pi)
    assert np.array_equal(a.tree.parent, b.tree.parent)
    for x, y in zip(a.tree.raw_arrays, b.tree.raw_arrays):
        assert np.array_equal(x, y)
    assert np.array_equal(a.w_prev[0], b.w_prev[0])
    assert a.constants == b.constants


def test_generator_zero_noise_collapses_to_nominal():
    inst = generate_certified_instance(small_spec(noise_scale=0.0))
    tree = inst.tree
    ref = NodeRow(tree, 0)
    for i in range(tree.node_count):
        nd = NodeRow(tree, i)
        assert np.array_equal(nd.A, ref.A)
        assert np.array_equal(nd.B, ref.B)
        assert np.array_equal(nd.Q, ref.Q)
        assert np.allclose(tree.raw_arrays.p[i], 0.0, atol=0.0)
    assert np.allclose(inst.w_prev[0], 0.0) and np.allclose(inst.w_prev[1], 0.0)
    # with identical stage data the policy matches deterministic MPC on
    # the equivalent single path
    T = tree.horizon
    chain = build_tree_explicit(
        list(range(-1, T)),
        list(range(T + 1)),
        [1.0] * (T + 1),
        stack([ref] * (T + 1)),
    )
    w0 = (np.ones(tree.nx), np.zeros(tree.nu))
    trace_tree = run_spc(tree, w0, 2)
    trace_chain = run_spc(chain, w0, 2)
    for n in range(tree.node_count):
        t = int(tree.stage[n])
        assert np.allclose(trace_tree.x[n], trace_chain.x[t], atol=1e-10)
        assert np.allclose(trace_tree.u[n], trace_chain.u[t], atol=1e-10)


def test_generator_certificates_and_bounds(noisy_instance):
    inst = noisy_instance
    stab = inst.certificates["stabilizability"]
    det = inst.certificates["detectability"]
    assert stab.alpha == pytest.approx(0.2)
    assert check_stabilizability(inst.tree, stab).passed
    assert check_detectability(inst.tree, det).passed
    L = stab.L
    for i in range(inst.tree.node_count):
        nd = NodeRow(inst.tree, i)
        for M in (nd.A, nd.B, nd.Q, nd.R):
            assert np.linalg.norm(M, 2) <= L + 1e-9
        for v in (nd.q, nd.r, nd.d):
            assert np.linalg.norm(v) <= L + 1e-9


def test_generator_instance_is_uniformly_regular(noisy_instance):
    inst = noisy_instance
    report = check_uniform_regularity(
        inst.tree, 0, inst.tree.horizon, constants=inst.constants
    )
    assert report.all_pass


def test_generator_margin_underflow_reported():
    with pytest.raises(TreeError, match="underflows"):
        generate_certified_instance(small_spec(L=1e300, T=1, branching=1))


def _recipe_node(spec, i):
    """Node i of ``generate_certified_instance(spec)`` rebuilt from the
    recipe in its docstring, with numpy alone."""
    nx, nu, L, alpha = spec.n_x, spec.n_u, spec.L, spec.alpha
    sigma, delta = min(spec.noise_scale, 1.0), (math.sqrt(alpha) - alpha) / L

    def scaled(M, target):
        return np.zeros(M.shape) if target == 0.0 else M * (target / np.linalg.norm(M, 2))

    def unit(rng, n):
        v = rng.standard_normal(n)
        while np.linalg.norm(v) == 0.0:
            v = rng.standard_normal(n)
        return v / np.linalg.norm(v)

    nom = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(1, 0)))
    Qf, Rf = np.linalg.qr(nom.standard_normal((nx, nx)))
    O = Qf @ np.diag(np.sign(np.diag(Rf)))
    B_nom = scaled(nom.standard_normal((nx, nu)), 0.5)
    K_nom = scaled(nom.standard_normal((nu, nx)), 0.25)

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(0, i)))
    amp = rng.uniform(0.5, 1.0, size=6)
    raw_A, raw_B, raw_C = (rng.standard_normal(s) for s in ((nx, nx), (nx, nu), (nx, nx)))
    q, r, d = (
        min(spec.noise_scale * amp[k], L) * unit(rng, n)
        for k, n in ((3, nx), (4, nu), (5, nx))
    )
    C = 0.3 * np.eye(nx) + scaled(
        0.5 * (raw_C + raw_C.T), sigma * min(delta / (2.0 * L), 0.29) * amp[2]
    )
    return {
        "A": alpha * O + B_nom @ K_nom + scaled(raw_A, sigma * (delta / 2.0) * amp[0]),
        "B": B_nom + scaled(raw_B, sigma * (delta / (2.0 * L)) * amp[1]),
        "Q": C @ C,
        "R": spec.gamma * np.eye(nu),
        "q": q,
        "r": r,
        "d": d,
    }


@pytest.mark.parametrize("noise_scale", [0.1, 0.0])
def test_generator_nodes_reproduce_in_isolation(noise_scale):
    spec = small_spec(n_u=2, T=4, noise_scale=noise_scale)
    tree = generate_certified_instance(spec).tree
    for i in (0, 1, 6, 17, 30):
        for field, want in _recipe_node(spec, i).items():
            assert np.array_equal(getattr(NodeRow(tree, i), field), want), (i, field)


@pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**63 - 1])
@pytest.mark.parametrize("N", [1, 2, 2047])
def test_batched_seeding_matches_numpy_on_every_node(seed, N):
    # seeds of one and two entropy words; node i's reference is numpy's own
    # SeedSequence(seed, spawn_key=(0, i)) seeding a PCG64
    words = experiments._spawn_words(seed, np.arange(N, dtype=np.uint32))
    assert words.shape == (N, 4) and words.dtype == np.uint64
    for i, rng in enumerate(experiments._node_streams(seed, N)):
        ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, i)))
        want = np.random.SeedSequence(seed, spawn_key=(0, i)).generate_state(4, np.uint64)
        assert np.array_equal(words[i], want), i
        assert rng.bit_generator.state == ref.bit_generator.state, i
        assert np.array_equal(rng.random(6), ref.random(6)), i
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5)), i
    assert i == N - 1


def test_batched_seeding_guard_raises_before_any_file(monkeypatch, tmp_path):
    # a hash constant that differs from numpy's stands in for a numpy whose
    # seeding changed: the batch must refuse rather than write other bytes
    monkeypatch.setattr(experiments, "_MULT_B", experiments._MULT_B ^ 2)
    with pytest.raises(RuntimeError, match="disagrees with numpy"):
        generate_certified_instance(small_spec())
    out = tmp_path / "g"
    with pytest.raises(RuntimeError, match="disagrees with numpy"):
        main(["generate", "--seed", "5", "--out", str(out)])
    assert not out.exists() or not any(out.iterdir())


class _Stream:
    """A stand-in for a node's generator: ``random``, ``uniform`` and
    ``standard_normal`` hand out the next values of two fixed streams, in
    which the normal stream of node i is zero over the positions listed in
    ``zeros[i]``."""

    def __init__(self, i, zeros):
        rng = np.random.default_rng(100 + i)
        self.u, self.n = rng.uniform(size=64), rng.standard_normal(64)
        self.n[list(zeros.get(i, ()))] = 0.0
        self.at_u = self.at_n = 0

    def random(self, size):
        self.at_u += size
        return self.u[self.at_u - size : self.at_u]

    def uniform(self, low, high, size):
        return low + (high - low) * self.random(size)

    def standard_normal(self, shape):
        size = math.prod(np.atleast_1d(shape))
        self.at_n += size
        return self.n[self.at_n - size : self.at_n].reshape(shape)


def test_batched_draws_redraw_zero_norms_as_the_sequential_calls(monkeypatch):
    # nx = 2, nu = 1: q sits at normal draws 10-11, r at 12, d at 13-14 of
    # the one batched call.  Node 1 has a zero q, node 2 a zero r twice in a
    # row, node 4 a zero d; node 3 has a zero entry but no zero norm.  The
    # batch draws from the per-node streams, the redraws from _node_rng
    nx, nu, N = 2, 1, 6
    zeros = {1: (10, 11), 2: (12, 13), 3: (10,), 4: (13, 14)}
    monkeypatch.setattr(experiments, "_node_streams",
                        lambda seed, N: (_Stream(i, zeros) for i in range(N)))
    monkeypatch.setattr(experiments, "_node_rng", lambda seed, i: _Stream(i, zeros))
    amp, draws = experiments._node_draws(5, N, nx, nu)
    used = []
    for i in range(N):
        rng = _Stream(i, zeros)
        assert np.array_equal(amp[i], rng.uniform(0.5, 1.0, size=6)), i
        for f, shape in (("A", (nx, nx)), ("B", (nx, nu)), ("C", (nx, nx))):
            assert np.array_equal(draws[f][i], rng.standard_normal(shape)), (i, f)
        for f, n in (("q", nx), ("r", nu), ("d", nx)):
            assert np.array_equal(draws[f][i], experiments._unit(rng, n)), (i, f)
        used.append(rng.at_n)
    # the redraws moved every later vector of nodes 1, 2 and 4
    assert used == [15, 17, 17, 15, 17, 15]


def test_generator_svd_count_does_not_grow_with_nodes(monkeypatch):
    # np.linalg.norm(M, 2) reaches svd through the implementation module
    calls, svd = [], np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(np.linalg._linalg, "svd", counting)
    counts = {}
    for T in (5, 6):
        calls.clear()
        generate_certified_instance(small_spec(T=T))
        counts[T] = len(calls)
    assert counts[5] > 0
    # 63 -> 127 nodes; each certificate's path-product check takes one more
    # depth step, a per-node SVD would add at least 64 calls
    assert counts[6] - counts[5] <= 2


def _counted_svd(monkeypatch):
    """A list that grows by one per ``np.linalg.svd`` call from now on."""
    calls, svd = [], np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(np.linalg._linalg, "svd", counting)
    return calls


def test_generator_svd_calls_are_its_recipe_scalings(monkeypatch):
    scalings, scaled = [], experiments._scaled

    def counting(*args):
        scalings.append(1)
        return scaled(*args)

    monkeypatch.setattr(experiments, "_scaled", counting)
    calls = _counted_svd(monkeypatch)
    for T in (5, 6):
        calls.clear()
        scalings.clear()
        generate_certified_instance(small_spec(T=T))
        assert len(calls) == len(scalings) == 5


def test_certificate_checks_make_no_svd_call(monkeypatch):
    instances = [generate_certified_instance(small_spec(T=T)) for T in (5, 6)]
    calls = _counted_svd(monkeypatch)
    for inst in instances:
        for role, check in (("stabilizability", check_stabilizability),
                            ("detectability", check_detectability)):
            assert check(inst.tree, inst.certificates[role]).passed
    assert calls == []


def test_stage_moments_match_manual_sum():
    nd_a = nd_scalar(q=0.3, r=0.4, d=0.0)
    nd_b = nd_scalar(q=0.0, r=0.0, d=1.0)
    tree = build_tree_explicit(
        [-1, 0, 0], [0, 1, 1], [1.0, 0.25, 0.75], stack([nd_a, nd_a, nd_b])
    )
    moments = stage_perturbation_moments(tree)
    assert moments[0] == pytest.approx(0.5)
    assert moments[1] == pytest.approx(math.sqrt(0.25 * 0.25 + 0.75 * 1.0))
    constants = compute_constants(1.0, 0.5, 1.0, tree=tree)
    assert moments.shape == (2,)
    assert constants.D == pytest.approx(moments.max())


# ---------------------------------------------------------------------------
# regret sweep


def test_regret_sweep_full_window_row(noisy_instance):
    inst = noisy_instance
    report = regret_sweep(
        inst.tree, inst.constants, inst.w_prev, [inst.tree.horizon]
    )
    assert report.passed
    assert len(report.points) == 1
    assert report.points[0].measured <= 1e-8
    assert report.details["rows"][0]["W"] == inst.tree.horizon


def test_regret_sweep_zero_noise_zero_regret():
    inst = generate_certified_instance(small_spec(noise_scale=0.0, T=3))
    report = regret_sweep(
        inst.tree,
        inst.constants,
        inst.w_prev,
        range(inst.tree.horizon + 1),
    )
    assert report.passed
    for row in report.details["rows"]:
        assert abs(row["regret"]) <= 1e-10
        assert row["bound"] == 0.0
    assert math.isnan(report.details["slope"])


def test_regret_sweep_certified_decay():
    inst = generate_certified_instance(small_spec(T=5, seed=9))
    W_list = range(inst.tree.horizon + 1)
    report = regret_sweep(inst.tree, inst.constants, inst.w_prev, W_list)
    assert report.passed
    rows = report.details["rows"]
    assert [row["W"] for row in rows] == list(W_list)
    for row in rows:
        assert row["regret"] >= -1e-8
    assert rows[-1]["regret"] <= 1e-8
    slope = report.details["slope"]
    assert math.isnan(slope) or slope <= 0.0


def test_regret_sweep_applicable_rows_checked(noisy_instance):
    inst = noisy_instance
    forced = dataclasses.replace(inst.constants, W_bar=0.0, W_bar_ceil=0.0)
    report = regret_sweep(inst.tree, forced, inst.w_prev, [0, 2, 4])
    assert report.passed
    assert all(p.applies for p in report.points)
    assert all(p.measured <= p.bound + 1e-9 * (1 + p.bound) for p in report.points)


def test_regret_sweep_rejects_out_of_range_window(noisy_instance):
    inst = noisy_instance
    with pytest.raises(TreeError, match="window"):
        regret_sweep(inst.tree, inst.constants, inst.w_prev, [99])


def test_regret_sweep_sorts_and_deduplicates_windows(noisy_instance):
    inst = noisy_instance
    full = regret_sweep(inst.tree, inst.constants, inst.w_prev, range(inst.tree.horizon + 1))
    report = regret_sweep(inst.tree, inst.constants, inst.w_prev, [4, 1, 4, 0, 1])
    rows = report.details["rows"]
    assert [row["W"] for row in rows] == [0, 1, 4]
    assert rows == [full.details["rows"][W] for W in (0, 1, 4)]
    for row in rows:
        assert row["J_W"] == run_spc(inst.tree, inst.w_prev, row["W"]).J_W


def test_regret_sweep_empty_window_list(noisy_instance):
    inst = noisy_instance
    report = regret_sweep(inst.tree, inst.constants, inst.w_prev, [])
    assert report.points == () and report.details["rows"] == []
    assert report.passed and math.isnan(report.details["slope"])


def test_shared_factor_names_the_failing_node_and_window():
    tree = depth_one_nonconvex_tree()
    w_prev = (np.array([0.3]), np.array([0.1]))
    constants = compute_constants(1.0, 0.5, 1.0, tree=tree, w_prev=w_prev)
    run_spc(tree, w_prev, 0)
    with pytest.raises(NonconvexError) as one:
        run_spc(tree, w_prev, 1)
    assert "node 6, window 1: step matrix not positive definite" in str(one.value)
    every = range(tree.horizon + 1)
    for sweep in (lambda: run_spc_windows(tree, w_prev, every),
                  lambda: regret_sweep(tree, constants, w_prev, every)):
        with pytest.raises(NonconvexError) as shared:
            sweep()
        assert str(shared.value) == str(one.value)


# ---------------------------------------------------------------------------
# moment envelope checks


def test_open_loop_bound_zero_everything():
    nd = nd_scalar(A=0.5, B=1.0)
    tree = build_tree_explicit(
        [-1, 0, 0], [0, 1, 1], [1.0, 0.5, 0.5], stack([nd, nd, nd])
    )
    constants = compute_constants(1.0, 0.5, 1.0, tree=tree)
    report = open_loop_bound_check(
        tree, constants, [0], 1, (np.zeros(1), np.zeros(1))
    )
    assert report.passed
    for p in report.points:
        assert p.measured == pytest.approx(0.0, abs=1e-12)
        assert p.bound == 0.0


def test_open_loop_bound_no_noise_initial_decay():
    inst = generate_certified_instance(small_spec(noise_scale=0.0))
    c = inst.constants
    w_prev = (np.full(inst.tree.nx, 0.5), np.zeros(inst.tree.nu))
    report = open_loop_bound_check(
        inst.tree, c, [0], inst.tree.horizon, w_prev
    )
    assert report.passed
    wbar = math.sqrt(float(np.concatenate(w_prev) @ np.concatenate(w_prev)))
    for p in report.points:
        _, t = p.index
        assert p.bound == pytest.approx(
            c.c1 * 2.0 * c.L * c.rho**t * wbar, rel=1e-12
        )


def test_open_loop_bound_certified(noisy_instance):
    inst = noisy_instance
    taus = [0, 1, inst.tree.stage_nodes(2)[0]]
    report = open_loop_bound_check(
        inst.tree, inst.constants, taus, 2, inst.w_prev
    )
    assert report.passed
    assert len(report.points) == sum(
        min(2, inst.tree.horizon - int(inst.tree.stage[k])) + 1 for k in taus
    )


def test_eisse_zero():
    nd = nd_scalar(A=0.5)
    tree = build_tree_explicit([-1, 0], [0, 1], [1.0, 1.0], stack([nd, nd]))
    constants = compute_constants(1.0, 0.5, 1.0, tree=tree)
    report = eisse_check(tree, constants, (np.zeros(1), np.zeros(1)))
    assert report.passed
    for p in report.points:
        assert p.measured == pytest.approx(0.0, abs=1e-12)


def test_eisse_certified(noisy_instance):
    inst = noisy_instance
    report = eisse_check(inst.tree, inst.constants, inst.w_prev)
    assert report.passed
    assert len(report.points) == inst.tree.horizon + 1


def test_eisse_no_noise_envelope_decays():
    inst = generate_certified_instance(small_spec(noise_scale=0.0))
    c = inst.constants
    w_prev = (np.full(inst.tree.nx, 1.0), np.zeros(inst.tree.nu))
    report = eisse_check(inst.tree, c, w_prev)
    assert report.passed
    bounds = [p.bound for p in report.points]
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_closed_loop_not_applicable_below_threshold(noisy_instance):
    inst = noisy_instance
    report = closed_loop_bound_check(
        inst.tree, inst.constants, inst.w_prev, 2
    )
    assert report.details["applicable"] is False
    assert report.details["W_bar"] == inst.constants.W_bar
    assert report.passed
    assert all(not p.applies for p in report.points)


def test_closed_loop_applicable_path(noisy_instance):
    inst = noisy_instance
    forced = dataclasses.replace(inst.constants, W_bar=0.0, W_bar_ceil=0.0)
    report = closed_loop_bound_check(inst.tree, forced, inst.w_prev, 3)
    assert report.details["applicable"] is True
    assert all(p.applies for p in report.points)
    assert report.passed


def test_closed_loop_zero_noise_zero_initial():
    inst = generate_certified_instance(small_spec(noise_scale=0.0, T=3))
    report = closed_loop_bound_check(
        inst.tree, inst.constants, inst.w_prev, 1
    )
    for p in report.points:
        assert p.measured == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# lemma suite


def test_lemma_suite_passes_on_certified_instance(noisy_instance):
    inst = noisy_instance
    reports = lemma_suite(inst.tree, inst.constants, 2, w_prev=inst.w_prev)
    names = [r.name for r in reports]
    assert names == [
        "closed_loop_product_decay",
        "truncation_gap",
        "one_step_vs_full_horizon_gap",
        "recursion_expansion",
    ]
    for report in reports:
        assert report.passed, (report.name, report.failures()[:3])


def test_lemma_suite_full_window_truncation_vanishes(noisy_instance):
    inst = noisy_instance
    reports = lemma_suite(
        inst.tree, inst.constants, inst.tree.horizon, w_prev=inst.w_prev
    )
    trunc = next(r for r in reports if r.name == "truncation_gap")
    for p in trunc.points:
        assert p.measured == pytest.approx(0.0, abs=1e-12)


def test_lemma_suite_decoupled_products_vanish():
    rng = np.random.default_rng(3)
    nx, nu = 2, 1
    def still(seed):
        src = random_node_data(np.random.default_rng(seed), nx, nu)
        return node_data(**{**vars(src), "A": np.zeros((nx, nx)), "B": np.zeros((nx, nu))})
    tree = build_tree_explicit(
        [-1, 0, 0, 1, 1, 2, 2],
        [0, 1, 1, 2, 2, 2, 2],
        [1.0, 0.4, 0.6, 0.2, 0.2, 0.3, 0.3],
        stack([still(s) for s in range(7)]),
    )
    constants = compute_constants(1.0, 0.5, 1.0, tree=tree)
    reports = lemma_suite(tree, constants, 1)
    decay = next(r for r in reports if r.name == "closed_loop_product_decay")
    assert decay.passed
    for p in decay.points:
        assert p.measured == pytest.approx(0.0, abs=1e-12)


def test_lemma_suite_peak_memory_is_one_stage_of_windows():
    # the recursion is solved one ancestor stage at a time; a table over
    # every (node, ancestor stage) pair peaked at 25.9 MB here
    spec = InstanceSpec(**{**DEFAULT_SPEC, "T": 10, "seed": 5})
    inst = generate_certified_instance(spec)
    tracemalloc.start()
    try:
        lemma_suite(inst.tree, inst.constants, 2, w_prev=inst.w_prev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.tree.node_count == 2047 and peak < 8e6


def test_one_pass_rule_for_default_and_overridden_slack():
    # the excess 3e-9 is past the default slack 1e-9 * (1 + bound) = 2e-9
    over = BoundPoint("over", 1.0 + 3e-9, 1.0)
    silent = BoundPoint("silent", 5.0, 1.0, applies=False)
    assert not over.ok() and over.ok(2 * PASS_SLACK) and silent.ok()
    report = BoundReport("r", (over, silent), False, None, {})
    assert _points_pass(report, None) == (False, [over])
    assert _points_pass(report, 2 * PASS_SLACK) == (True, [])
    assert _points_pass(report, 0.0) == (False, [over])

