"""Constants chain, stability certificates, and perturbation margins."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spc_lab import (
    TreeError,
    build_tree_stagewise,
    check_detectability,
    check_stabilizability,
    check_stability_tree,
    compute_constants,
    perturbation_margin,
    psd_sqrt,
)

from .helpers import (
    crossed_tree,
    gain_certificate,
    nd_scalar,
    node_data,
    node_stack,
    random_node_data,
    random_tree,
    stagewise,
    uneven_tree,
    uniform_outcome,
)
from .oracles import decimal_constants, worst_path_product


def dec_to_float(d):
    try:
        return float(d)
    except OverflowError:
        return math.inf


def uniform_binary_tree(nd, T):
    stages = [[(nd, 1.0)]] + [[(nd, 0.5), (nd, 0.5)]] * T
    return build_tree_stagewise(stagewise(stages))


# ---------------------------------------------------------------------------
# compute_constants


def test_constants_direct_substitution_values():
    b = compute_constants(1.0, 0.5, 1.0)
    assert b.L_H == 3.0
    assert b.gamma_F == pytest.approx(0.0625, abs=1e-15)
    assert b.gamma_G == pytest.approx(0.03125, abs=1e-15)
    expected_mu = (2 * 9 / 0.03125 + 0.03125 + 3) / 0.0625
    assert b.mu_bar == pytest.approx(expected_mu, rel=1e-14)


@pytest.mark.parametrize("params", [(1.0, 0.5, 1.0), (1.0, 0.2, 1.0), (2.0, 0.3, 0.5)])
def test_constants_match_extended_precision_oracle(params):
    L, alpha, gamma = params
    b = compute_constants(L, alpha, gamma)
    o = decimal_constants(L, alpha, gamma)
    assert b.L_H == pytest.approx(dec_to_float(o["L_H"]), rel=1e-12)
    assert b.gamma_F == pytest.approx(dec_to_float(o["gamma_F"]), rel=1e-12)
    assert b.gamma_G == pytest.approx(dec_to_float(o["gamma_G"]), rel=1e-12)
    assert b.mu_bar == pytest.approx(dec_to_float(o["mu_bar"]), rel=1e-12)
    assert b.gamma_H == pytest.approx(dec_to_float(o["gamma_H"]), rel=1e-12)
    assert b.one_minus_rho == pytest.approx(
        dec_to_float(1 - o["rho"]), rel=1e-10
    )
    assert b.c1 == pytest.approx(dec_to_float(o["c1"]), rel=1e-10)
    assert b.W_bar == pytest.approx(dec_to_float(o["W_bar"]), rel=1e-10)
    for name in ("c2", "c3", "c4", "c5", "c6", "c7"):
        expected = dec_to_float(o[name])
        got = getattr(b, name)
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expected, rel=1e-9)


def test_constants_internal_consistency():
    b = compute_constants(1.0, 0.2, 1.0)
    x = (b.gamma_H / b.L_H) ** 2
    assert b.one_minus_rho2 == pytest.approx(2 * x / (1 + x), rel=1e-14)
    assert b.c1 * b.gamma_H**2 * b.rho == pytest.approx(b.L_H, rel=1e-12)
    # complements are mutually consistent
    sqrt_rho = math.sqrt(b.rho)
    assert b.one_minus_sqrt_rho * (1 + sqrt_rho) == pytest.approx(
        b.one_minus_rho, rel=1e-12
    )
    assert b.one_minus_rho > 0.0
    assert b.rho <= 1.0
    assert b.W_bar >= 0.0 and b.c1 >= 1.0 and b.gamma_H > 0.0
    for name in ("c2", "c3", "c4", "c5", "c6", "c7"):
        assert getattr(b, name) > 0.0


def test_constants_normalization_warns():
    with pytest.warns(RuntimeWarning, match="normalized"):
        a = compute_constants(0.5, 0.3, 1.0)
    assert a.L == 1.0
    with pytest.warns(RuntimeWarning, match="normalized"):
        g = compute_constants(1.0, 0.3, 2.0)
    assert g.gamma == 1.0
    ref = compute_constants(1.0, 0.3, 1.0)
    assert a.c2 == ref.c2 and g.c2 == ref.c2


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
def test_constants_reject_bad_alpha(alpha):
    with pytest.raises(ValueError):
        compute_constants(1.0, alpha, 1.0)


@pytest.mark.parametrize("bad", [(-1.0, 0.5, 1.0), (1.0, 0.5, 0.0), (1.0, 0.5, -2.0)])
def test_constants_reject_bad_L_gamma(bad):
    with pytest.raises(ValueError):
        compute_constants(*bad)


def test_constants_monotone_rate_and_threshold():
    # rate toward 1 (complement toward 0) as L or alpha grow, gamma shrinks
    oms = [compute_constants(L, 0.3, 1.0).one_minus_rho for L in (1.0, 1.5, 2.0)]
    assert oms[0] >= oms[1] >= oms[2]
    oms = [compute_constants(1.0, a, 1.0).one_minus_rho for a in (0.1, 0.3, 0.5)]
    assert oms[0] >= oms[1] >= oms[2]
    oms = [compute_constants(1.0, 0.3, g).one_minus_rho for g in (0.25, 0.5, 1.0)]
    assert oms[0] <= oms[1] <= oms[2]
    wbs = [compute_constants(L, 0.3, 1.0).W_bar for L in (1.0, 1.5, 2.0)]
    assert wbs[0] <= wbs[1] <= wbs[2]
    wbs = [compute_constants(1.0, 0.3, g).W_bar for g in (0.25, 0.5, 1.0)]
    assert wbs[0] >= wbs[1] >= wbs[2]


def test_constants_moment_bound_from_tree():
    tree = random_tree(seed=61, T=3, branching=2, nx=2, nu=1)
    b = compute_constants(1.0, 0.3, 1.0, tree=tree, w_prev=(np.ones(2), np.ones(1)))
    per_stage = []
    for t in range(tree.horizon + 1):
        per_stage.append(
            math.fsum(
                tree.pi[j] * float(tree.raw_arrays.p[j] @ tree.raw_arrays.p[j])
                for j in tree.stage_nodes(t)
            )
        )
    assert b.D == pytest.approx(math.sqrt(max(per_stage)), rel=1e-13)
    assert b.w_bar_norm == pytest.approx(math.sqrt(3.0), rel=1e-13)
    assert b.W_bar_ceil == math.ceil(b.W_bar)


# ---------------------------------------------------------------------------
# check_stability_tree


def test_stability_scalar_half_exact():
    tree = uniform_binary_tree(nd_scalar(), 3)
    Phi = node_stack(tree, {n: np.array([[0.5]]) for n in range(1, tree.node_count)})
    result = check_stability_tree(tree, Phi, 1.0, 0.5)
    assert result.passed
    assert result.worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_stability_scalar_growth_fails():
    tree = uniform_binary_tree(nd_scalar(), 2)
    Phi = node_stack(tree, {n: np.array([[1.1]]) for n in range(1, tree.node_count)})
    result = check_stability_tree(tree, Phi, 1.0, 0.5)
    assert not result.passed
    assert result.worst_ratio > 2.0


def test_stability_requires_all_transition_matrices():
    # one row short of the three nodes
    tree = uniform_binary_tree(nd_scalar(), 1)
    with pytest.raises(TreeError, match="missing"):
        check_stability_tree(tree, np.zeros((2, 1, 1)), 1.0, 0.5)


@pytest.mark.parametrize("L", [math.nan, math.inf, 0.0, -1.0])
def test_stability_refuses_non_finite_or_nonpositive_L(L):
    # a NaN L would make every ratio NaN, and NaN ratios read as passes
    tree = uniform_binary_tree(nd_scalar(), 2)
    Phi = node_stack(tree, {n: np.array([[5.0]]) for n in range(1, tree.node_count)})
    with pytest.raises(ValueError, match="L must be positive and finite"):
        check_stability_tree(tree, Phi, L, 0.5)


def test_stability_path_products_are_order_correct():
    # non-commuting pair whose two multiplication orders land on opposite
    # sides of the depth-2 bound, so a reversed product flips the verdict
    nd = node_data(
        A=np.zeros((2, 2)),
        B=np.zeros((2, 1)),
        d=np.zeros(2),
        Q=np.eye(2),
        R=np.eye(1),
        q=np.zeros(2),
        r=np.zeros(1),
    )
    tree = build_tree_stagewise(stagewise([[(nd, 1.0)], [(nd, 1.0)], [(nd, 1.0)]]))
    L, alpha = 2.0, 0.5
    M1 = np.array([[0.0, 1.0], [0.0, 0.0]])  # stage 1, norm 1 = L*alpha
    M2 = np.array([[0.0, 0.0], [0.4, 0.6]])  # stage 2, norm < 1
    # transition along the chain is M2 @ M1, norm 0.4 <= L*alpha^2 = 0.5;
    # the reversed product has norm > 0.7 and would fail
    assert np.linalg.norm(M2 @ M1, 2) < 0.5 < np.linalg.norm(M1 @ M2, 2)
    result = check_stability_tree(tree, node_stack(tree, {1: M1, 2: M2}), L, alpha)
    assert result.passed


@pytest.mark.parametrize(
    "build", [crossed_tree, uneven_tree, lambda rng: random_tree(41, T=4, nx=3)],
    ids=["crossed", "uneven", "stagewise-T4"],
)
def test_stability_worst_pair_matches_path_walk(build):
    rng = np.random.default_rng(41)
    tree = build(rng)
    n = tree.nx
    Phi = node_stack(tree, {
        j: 0.6 * rng.standard_normal((n, n)) / math.sqrt(n)
        for j in range(1, tree.node_count)
    })
    result = check_stability_tree(tree, Phi, 1.5, 0.7)
    ratio, pair = worst_path_product(tree, Phi, 1.5, 0.7)
    assert result.worst_pair == pair
    assert result.worst_ratio == pytest.approx(ratio, rel=1e-14)
    assert result.passed == (ratio <= 1.0 + 1e-9)


def test_stability_ties_resolve_to_first_descendant_and_depth():
    # Phi = I/2 with L = 1, alpha = 1/2: every ratio is exactly 1.0
    tree = uneven_tree(np.random.default_rng(42))
    Phi = node_stack(tree, {j: 0.5 * np.eye(tree.nx) for j in range(1, tree.node_count)})
    result = check_stability_tree(tree, Phi, 1.0, 0.5)
    walked = worst_path_product(tree, Phi, 1.0, 0.5)
    assert (result.worst_ratio, result.worst_pair) == walked
    assert result == (True, (0, 1), 1.0)


@pytest.mark.parametrize("n", [1, 2])
def test_stability_overflowing_path_product_fails_with_ratio_inf(n):
    # one step: 1e200 against L * alpha = 5e299; two steps: 1e400 against
    # 2.5e299, a product that overflows to inf.  The SVD of an inf matrix is
    # NaN, which the path-walk oracle skips as the old check did
    tree = uniform_binary_tree(random_node_data(np.random.default_rng(43), n, 1), 2)
    Phi = node_stack(tree, {j: 1e200 * np.eye(n) for j in range(1, tree.node_count)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_stability_tree(tree, Phi, 1e300, 0.5)
    assert result == (False, (0, 3), math.inf)


def test_stability_single_stage_tree_passes_vacuously():
    tree = build_tree_stagewise(uniform_outcome(nd_scalar(), [[1.0]]))
    assert check_stability_tree(tree, np.zeros((1, 1, 1)), 1.0, 0.5) == (True, None, 0.0)


# ---------------------------------------------------------------------------
# certificates


def test_stabilizability_decoupled_pass():
    nd = nd_scalar(A=0.5, B=0.0)
    tree = uniform_binary_tree(nd, 2)
    cert = gain_certificate({n: np.zeros((1, 1)) for n in range(tree.node_count)})
    check = check_stabilizability(tree, cert)
    assert check.passed
    assert check.stability.worst_ratio <= 1.0 + 1e-9


def test_certificate_ids_beyond_the_tree_are_ignored():
    # gains at ids the tree does not have are not read, whatever they hold
    tree = uniform_binary_tree(nd_scalar(A=0.5, B=0.0), 2)
    K = {n: np.zeros((1, 1)) for n in range(tree.node_count)}
    K.update({tree.node_count: np.array([[5.0]]), 10**12: np.array([[5.0]])})
    for check in (check_stabilizability, check_detectability):
        assert check(tree, gain_certificate(K)).passed


def test_stabilizability_flags_oversized_gain():
    nd = nd_scalar(A=0.5, B=0.0)
    tree = uniform_binary_tree(nd, 1)
    cert = gain_certificate({n: np.array([[2.0]]) for n in range(tree.node_count)})
    check = check_stabilizability(tree, cert)
    assert not check.passed
    assert "gain bound violated" in check.message


def test_stabilizability_requires_gains_on_early_stages():
    nd = nd_scalar(A=0.5, B=0.0)
    tree = uniform_binary_tree(nd, 1)
    cert = gain_certificate({})
    with pytest.raises(TreeError, match="^missing gain for node 0$"):
        check_stabilizability(tree, cert)


def test_stabilizability_uses_parent_gain():
    # A = 1, B = 1; only K = 0.5 at every node keeps A - B K = 0.5 stable
    nd = nd_scalar(A=1.0, B=1.0)
    tree = uniform_binary_tree(nd, 2)
    K = {n: np.array([[0.5]]) for n in range(tree.node_count)}
    check = check_stabilizability(tree, gain_certificate(K))
    assert check.passed
    K_bad = {n: np.array([[0.0]]) for n in range(tree.node_count)}
    check = check_stabilizability(tree, gain_certificate(K_bad))
    assert not check.passed


def test_detectability_decoupled_pass():
    nd = nd_scalar(A=0.5, B=0.0, Q=1.0)
    tree = uniform_binary_tree(nd, 2)
    cert = gain_certificate(
        {n: np.zeros((1, 1)) for n in range(tree.node_count)}, role="detectability"
    )
    check = check_detectability(tree, cert)
    assert check.passed


def test_detectability_rejects_indefinite_cost():
    bad = node_data(
        A=[[0.5]], B=[[0.0]], d=[0.0], Q=[[-0.1]], R=[[1.0]], q=[0.0], r=[0.0]
    )
    tree = build_tree_stagewise(stagewise([[(bad, 1.0)], [(bad, 1.0)]]))
    cert = gain_certificate({n: np.zeros((1, 1)) for n in range(2)}, role="detectability")
    with pytest.raises(TreeError, match="Q not PSD"):
        check_detectability(tree, cert)


def _detectability_cert(tree, K):
    return gain_certificate(K, role="detectability")


def test_detectability_first_fault_in_node_order_decides():
    tree = uniform_binary_tree(nd_scalar(A=0.5, B=0.0, Q=1.0), 2)
    K = {n: np.zeros((1, 1)) for n in range(1, tree.node_count)}
    # oversized gain at node 2 before a missing one at node 5: a failed check
    early_big = {**K, 2: np.array([[3.0]])}
    del early_big[5]
    check = check_detectability(tree, _detectability_cert(tree, early_big))
    assert not check.passed
    assert check.message.startswith("gain bound violated: node 2 has ||K|| = 3 ")
    # the reverse order raises on the missing gain
    early_missing = {**K, 5: np.array([[3.0]])}
    del early_missing[2]
    with pytest.raises(TreeError, match="missing gain for node 2$"):
        check_detectability(tree, _detectability_cert(tree, early_missing))


@pytest.mark.parametrize(
    "check, shape", [(check_stabilizability, (2, 3)), (check_detectability, (3, 3))]
)
def test_misshaped_gain_names_node_and_shapes(check, shape):
    # all gains share one shape, so a misshaped certificate fails at the
    # first node the check reads: node 0 for stabilizability, node 1 for
    # detectability (the root has no detectability gain)
    tree = random_tree(seed=4, T=2, branching=2, nx=3, nu=2)
    K = {n: np.array([[0.1, 0.2, 0.3]]) for n in range(tree.node_count)}
    with pytest.raises(TreeError) as err:
        check(tree, gain_certificate(K))
    first = 0 if check is check_stabilizability else 1
    assert str(err.value) == f"gain for node {first} has shape (1, 3), expected {shape}"


def test_detectability_indefinite_cost_reports_first_node():
    good = nd_scalar(A=0.5, B=0.0, Q=1.0)
    stages = [[(good, 1.0)], [(nd_scalar(Q=-0.1), 0.5), (nd_scalar(Q=-0.5), 0.5)]]
    tree = build_tree_stagewise(stagewise(stages))
    cert = _detectability_cert(tree, {1: np.zeros((1, 1)), 2: np.zeros((1, 1))})
    with pytest.raises(TreeError, match=r"^Q not PSD: smallest eigenvalue -0\.1$"):
        check_detectability(tree, cert)


def test_detectability_uses_parent_observation_map():
    # root Q = 4 so C_root = 2; node 1 closes A - K*C = 1 - 0.25*2 = 0.5
    root = nd_scalar(A=1.0, B=0.0, Q=4.0)
    child = nd_scalar(A=1.0, B=0.0, Q=4.0)
    tree = build_tree_stagewise(stagewise([[(root, 1.0)], [(child, 1.0)]]))
    cert = gain_certificate({1: np.array([[0.25]])}, role="detectability")
    check = check_detectability(tree, cert)
    assert check.passed
    assert check.stability.worst_ratio == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# psd_sqrt


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(62)
    M = rng.standard_normal((4, 4))
    Q = M @ M.T
    S = psd_sqrt(Q)
    assert_allclose(S @ S, Q, atol=1e-10)
    assert_allclose(S, S.T, atol=0)


def test_psd_sqrt_of_stack_matches_each_matrix():
    rng = np.random.default_rng(63)
    M = rng.standard_normal((5, 3, 3))
    Q = M @ M.transpose(0, 2, 1)
    S = psd_sqrt(Q)
    for k in range(5):
        assert np.array_equal(S[k], psd_sqrt(Q[k]))


def test_psd_sqrt_clamps_drift():
    Q = np.diag([1.0, -5e-11])
    S = psd_sqrt(Q)
    assert_allclose(S, np.diag([1.0, 0.0]), atol=1e-8)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(TreeError, match="not PSD"):
        psd_sqrt(np.diag([1.0, -0.1]))


# ---------------------------------------------------------------------------
# perturbation margin


def test_margin_direct_values():
    assert perturbation_margin(1.0, 0.25) == pytest.approx(0.25, abs=1e-15)
    assert perturbation_margin(2.0, 0.25) == pytest.approx(0.125, abs=1e-15)


def test_margin_vanishes_toward_one():
    grid = [0.5, 0.7, 0.9, 0.99, 0.999]
    vals = [perturbation_margin(1.0, a) for a in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.02


def test_margin_rejects_bad_alpha():
    with pytest.raises(ValueError):
        perturbation_margin(1.0, 1.0)


# ---------------------------------------------------------------------------
# perturbation margin: a nominal (L, alpha)-stable matrix plus per-node
# deviations within the margin passes the tree check at (L, sqrt(alpha))


def orthogonal(rng, n):
    M = rng.standard_normal((n, n))
    Qm, Rm = np.linalg.qr(M)
    return Qm * np.sign(np.diag(Rm))


def test_perturbed_zero_deviation_passes():
    tree = uniform_binary_tree(nd_scalar(), 3)
    dev = np.zeros((tree.node_count, 2, 2))
    out = check_stability_tree(tree, 0.5 * np.eye(2) + dev, 1.0, math.sqrt(0.5))
    assert out.passed


@pytest.mark.parametrize("trial", range(10))
def test_perturbed_random_deviations_within_margin_pass(trial):
    rng = np.random.default_rng(1000 + trial)
    alpha, L = 0.4, 1.0
    tree = uniform_binary_tree(nd_scalar(), 3)
    Phi = alpha * orthogonal(rng, 3)
    delta = perturbation_margin(L, alpha)
    dev = np.zeros((tree.node_count, 3, 3))
    for n in range(1, tree.node_count):
        raw = rng.standard_normal((3, 3))
        dev[n] = raw * (delta * rng.uniform(0.0, 1.0) / np.linalg.norm(raw, 2))
    out = check_stability_tree(tree, Phi + dev, L, math.sqrt(alpha))
    assert out.passed
