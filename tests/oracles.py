"""Independent reference computations used to cross-check the library.

Everything here is deliberately written against the problem statements
rather than the library internals: dense unscaled optimality systems,
brute-force probability enumeration, naive norm accumulation, and an
extended-precision re-evaluation of the conditioning constants.  Keeping
these paths separate from the package is what gives the comparisons teeth.
"""

import math
from decimal import Decimal, getcontext

import numpy as np

FIELDS = ("A", "B", "d", "Q", "R", "q", "r")


class NodeRow:
    """Node n's data, one attribute per field, each read by name off the
    stacked ``tree.raw_arrays``."""

    def __init__(self, tree, n):
        self.__dict__.update((f, getattr(tree.raw_arrays, f)[n]) for f in FIELDS)


def svd_spectral_norms(M):
    """Largest singular value of each matrix of a ``(k, r, c)`` stack, one
    LAPACK SVD per matrix."""
    return np.array([np.linalg.svd(m, compute_uv=False)[0] for m in M], dtype=float)


def leaf_products(per_stage_probs):
    """All root-to-leaf branch probability products, by direct recursion."""
    out = []

    def walk(t, acc):
        if t == len(per_stage_probs):
            out.append(acc)
            return
        for p in per_stage_probs[t]:
            walk(t + 1, acc * p)

    for p0 in per_stage_probs[0]:
        walk(1, p0)
    return out


def naive_pi_norm(pis, vecs):
    """sqrt(sum_i pi_i ||v_i||^2) by plain double-loop accumulation."""
    total = []
    for pi, v in zip(pis, vecs):
        for entry in np.asarray(v).ravel():
            total.append(pi * float(entry) * float(entry))
    return math.sqrt(math.fsum(total))


def sampled_operator_norm(apply_fn, dim_in, pi_in, rng, trials=1000):
    """Lower bound on the pi-weighted operator norm via random unit vectors.

    ``apply_fn`` maps a stacked input (one block per node, ordered like
    ``pi_in``) to (pi_out, stacked output blocks).  Returns the best ratio
    found over ``trials`` random directions.
    """
    best = 0.0
    sizes = [d for d in dim_in]
    for _ in range(trials):
        blocks = [rng.standard_normal(d) for d in sizes]
        denom = naive_pi_norm(pi_in, blocks)
        if denom == 0.0:
            continue
        pi_out, out_blocks = apply_fn(blocks)
        best = max(best, naive_pi_norm(pi_out, out_blocks) / denom)
    return best


def _weighted_kkt(tree, k, nodes):
    """Dense optimality matrix of the probability-weighted subproblem at k
    over ``nodes``, without any scaling.

    Variables are stacked as all (x_i, u_i) blocks followed by all
    multiplier blocks y_i, and the matrix is assembled from the weighted
    Lagrangian directly.  Returns the matrix, ``idx`` with ``idx[a]`` the
    positions of node a's (x, u, y), which are also the rows its (q, r, d)
    enter, and the probabilities ``cond`` conditional on k that weight
    each node's rows.
    """
    nx, nu, m = tree.nx, tree.nu, len(nodes)
    nw = (nx + nu) * m
    local = {n: a for a, n in enumerate(nodes)}
    idx = np.hstack(
        [np.arange(nw).reshape(m, nx + nu), nw + np.arange(m * nx).reshape(m, nx)]
    )
    cond = np.array([tree.pi[n] / tree.pi[k] for n in nodes])
    M = np.zeros((nw + nx * m, nw + nx * m))
    for a, n in enumerate(nodes):
        nd, c = NodeRow(tree, n), cond[a]
        x, u, y = idx[a, :nx], idx[a, nx : nx + nu], idx[a, nx + nu :]
        M[np.ix_(x, x)] += c * nd.Q
        M[np.ix_(x, y)] += c * np.eye(nx)
        M[np.ix_(u, u)] += c * nd.R
        M[np.ix_(y, x)] += c * np.eye(nx)
        for ch in tree.children[n]:
            if ch not in local:
                continue
            b, cd = local[ch], NodeRow(tree, ch)
            yc = idx[b, nx + nu :]
            M[np.ix_(x, yc)] -= cond[b] * cd.A.T
            M[np.ix_(u, yc)] -= cond[b] * cd.B.T
        if n != k:
            par = idx[local[int(tree.parent[n])]]
            M[np.ix_(y, par[:nx])] -= c * nd.A
            M[np.ix_(y, par[nx : nx + nu])] -= c * nd.B
    return M, idx, cond


def _weighted_rhs(tree, k, nodes, idx, cond, w_prev):
    """Right-hand side of :func:`_weighted_kkt`: each node's (q, r, d)
    weighted like its rows, with the committed pair ``w_prev`` entering
    the dynamics rows of the root k."""
    x_prev, u_prev = np.asarray(w_prev[0], float), np.asarray(w_prev[1], float)
    rhs = np.zeros(idx.size)
    for a, n in enumerate(nodes):
        nd = NodeRow(tree, n)
        d = nd.A @ x_prev + nd.B @ u_prev + nd.d if n == k else nd.d
        rhs[idx[a]] = cond[a] * np.concatenate([nd.q, nd.r, d])
    return rhs


def dense_unscaled_solve(tree, k, nodes, w_prev):
    """Solve the probability-weighted extensive problem without any scaling.

    The optimality system of :func:`_weighted_kkt` is solved densely, with
    the committed pair ``w_prev`` entering the root's dynamics rows.
    Returns (x, u, y, objective) keyed by node.
    """
    nx, nu = tree.nx, tree.nu
    M, idx, cond = _weighted_kkt(tree, k, nodes)
    sol = np.linalg.solve(M, _weighted_rhs(tree, k, nodes, idx, cond, w_prev))
    x = {n: sol[idx[a, :nx]] for a, n in enumerate(nodes)}
    u = {n: sol[idx[a, nx : nx + nu]] for a, n in enumerate(nodes)}
    y = {n: sol[idx[a, nx + nu :]] for a, n in enumerate(nodes)}
    obj = math.fsum(
        cond[a] * stage_cost(NodeRow(tree, n), x[n], u[n]) for a, n in enumerate(nodes)
    )
    return x, u, y, obj


def dense_solution_map(tree, k, nodes):
    """Solution map of the subproblem at k over ``nodes``, zero committed pair.

    ``Omega[a, :, b, :]`` takes the perturbation (q, r, d) of node b to the
    (x, u, y) of node a: the dense system of :func:`_weighted_kkt` solved
    against identity right-hand sides, each weighted like node b's rows.
    """
    M, idx, cond = _weighted_kkt(tree, k, nodes)
    inv = np.linalg.solve(M, np.eye(len(M)))
    return inv[idx[:, :, None, None], idx[None, None]] * cond[None, None, :, None]


def apply_psi(Omega, nodes, nw, p_blocks):
    """``w = Psi p`` for per-node perturbation blocks ``p_blocks``, with
    ``Psi`` the first ``nw`` rows of each block of ``Omega`` over
    ``nodes``: ``{node: w block}``."""
    p = np.array([p_blocks[n] for n in nodes], dtype=float)
    w = np.tensordot(Omega[:, :nw], p, axes=2)
    return dict(zip(nodes, w))


def block_norm(M4, f):
    """Spectral norm of the block array ``M4[a, :, b, :]`` with block
    ``(a, b)`` scaled by ``f[a, b]``: the root of the largest eigenvalue
    of the Gram matrix on the smaller side."""
    if M4.size == 0:
        return 0.0
    a, r, b, c = M4.shape
    M = (M4 * f[:, None, :, None]).reshape(a * r, b * c)
    gram = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def dense_decay(tree, nodes, Omega, nw):
    """Stage-pair norms of a dense solution map ``Omega`` over ``nodes``
    (as from :func:`dense_solution_map`), in any node order.

    Returns ``(t, t', psi, omega)`` per ordered stage pair, stage-major:
    the spectral norms of the stage blocks of Psi (the first ``nw`` rows
    of each block) and of Omega, block (i, j) scaled by
    ``sqrt(pi_i / pi_j)``.
    """
    nodes = list(nodes)
    pi, stage = tree.pi[nodes], tree.stage[nodes]
    rows = []
    for t in sorted(set(stage.tolist())):
        a = np.flatnonzero(stage == t)
        for tp in sorted(set(stage.tolist())):
            b = np.flatnonzero(stage == tp)
            M4 = Omega[a][:, :, b]
            f = np.sqrt(pi[a, None] / pi[None, b])
            rows.append((t, tp, block_norm(M4[:, :nw], f), block_norm(M4, f)))
    return rows


def worst_path_product(tree, Phi, L, alpha):
    """Worst ratio ``||Phi_j ... Phi_c|| / (L alpha^dt)`` over every strict
    ancestor-descendant pair, c the child of the ancestor on the path, by
    walking each path up from its descendant j.  Returns (ratio, pair) for
    the first maximum in (j, dt) order; (0.0, None) when no ratio is
    positive.
    """
    best, pair = 0.0, None
    for j in range(tree.node_count):
        if tree.stage[j] < 1:
            continue
        M, node, dt = np.asarray(Phi[j], float), j, 1
        while True:
            anc = int(tree.parent[node])
            ratio = float(np.linalg.svd(M, compute_uv=False)[0]) / (L * alpha**dt)
            if ratio > best:
                best, pair = ratio, (anc, j)
            if tree.parent[anc] < 0:
                break
            M, node, dt = M @ np.asarray(Phi[anc], float), anc, dt + 1
    return best, pair


def stage_cost(nd, x, u):
    return float(
        0.5 * (x @ nd.Q @ x) + 0.5 * (u @ nd.R @ u) - nd.q @ x - nd.r @ u
    )


def stage_costs_loop(tree, node, x, u):
    """Stage cost of each position over tree nodes ``node``, node by node
    from ``tree.raw_arrays``, with the sum of the absolute values of its terms."""
    cost, scale = [], []
    for n, xi, ui in zip(node, x, u):
        nd = NodeRow(tree, n)
        cost.append(stage_cost(nd, xi, ui))
        scale.append(
            0.5 * (abs(xi) @ abs(nd.Q) @ abs(xi)) + 0.5 * (abs(ui) @ abs(nd.R) @ abs(ui))
            + abs(nd.q) @ abs(xi) + abs(nd.r) @ abs(ui)
        )
    return np.array(cost), np.array(scale)


def stage_moments_loop(weight, V, stage, T):
    """Per-stage ``sqrt(sum_j w_j ||V_j||^2)``, t = 0..T, row by row."""
    terms = [[] for _ in range(T + 1)]
    for w, row, t in zip(weight, V, stage):
        terms[int(t)].append(float(w) * math.fsum(float(e) * float(e) for e in row))
    return [math.sqrt(math.fsum(ts)) for ts in terms]


def simulate_no_lookahead(tree, w_prev):
    """Zero-window policy by forward simulation: u = R^{-1} r at each node."""
    x, u = {}, {}
    for n in range(tree.node_count):
        nd = NodeRow(tree, n)
        if n == 0:
            xp, up = np.asarray(w_prev[0], float), np.asarray(w_prev[1], float)
        else:
            par = int(tree.parent[n])
            xp, up = x[par], u[par]
        x[n] = nd.A @ xp + nd.B @ up + nd.d
        u[n] = np.linalg.solve(nd.R, nd.r)
    obj = math.fsum(
        tree.pi[n] * stage_cost(NodeRow(tree, n), x[n], u[n])
        for n in range(tree.node_count)
    )
    return x, u, obj


def decimal_constants(L, alpha, gamma, digits=60):
    """Re-evaluate every conditioning constant in extended precision.

    Independent of the library's float evaluation; used to confirm the
    float path agrees to within its own rounding.  Returns Decimals.
    """
    getcontext().prec = digits
    L = Decimal(repr(L))
    alpha = Decimal(repr(alpha))
    gamma = Decimal(repr(gamma))
    one, two = Decimal(1), Decimal(2)
    L_H = two * L + one
    gamma_F = (one - alpha) ** 2 / ((one + L) ** 2 * L**2)
    gamma_G = gamma * (one - alpha) ** 2 / (two * (one + L) ** 2 * L**4)
    mu_bar = (two * L_H**2 / gamma_G + gamma_G + L_H) / gamma_F
    gamma_H = one / (
        two / gamma_G
        + (one + 4 * L_H / gamma_G + 4 * L_H**2 / gamma_G**2)
        * L_H
        * (one + mu_bar * L_H)
        / gamma_F
        + mu_bar
    )
    rho = ((L_H**2 - gamma_H**2) / (L_H**2 + gamma_H**2)).sqrt()
    c1 = L_H / (gamma_H**2 * rho)
    sqrt_alpha = alpha.sqrt()
    sqrt_rho = rho.sqrt()
    W_bar = ((sqrt_alpha - alpha) / (4 * c1**2 * L**3)).ln() / (two * rho.ln())
    c2 = two * c1**2 * L / (rho * (one - rho * sqrt_rho))
    c3 = 4 * c1**2 * L * (two * c2 * L / (one - sqrt_rho) + one / (one - rho))
    c4 = 8 * c1**2 * c2 * L**3
    c5 = c3 * (two * c2 * L / (one - sqrt_rho) + c3 * L / two + one) + (
        two * c1**2 * c3 * L**2 / (one - rho**2)
    ) * (-one + two * c3 * L + 4 / (one - rho) + 8 * c2 * L / (one - sqrt_rho))
    c6 = (one / (one - sqrt_rho)) * (
        two * c2 * c4 * L / (one - sqrt_rho)
        + c3 * c4 * L
        + c4
        + two * c2 * c3 * L**2
        + (two * c1**2 * L**2 / (one - rho**2))
        * (
            -c4
            + two * c3 * c4 * L
            + 4 * c4 / (one - rho)
            + 8 * c2 * c4 * L / (one - sqrt_rho)
            + two * c3 * L * (4 * c2 * L + c4)
        )
    )
    c7 = (one / (one - rho)) * (
        c4 * (two * c2 * L**2 + c4 * L / two)
        + 4 * c1**2 * c4 * L**3 * (4 * c2 * L + c4) / (one - rho**2)
    )
    return {
        "L_H": L_H,
        "gamma_F": gamma_F,
        "gamma_G": gamma_G,
        "mu_bar": mu_bar,
        "gamma_H": gamma_H,
        "rho": rho,
        "c1": c1,
        "W_bar": W_bar,
        "c2": c2,
        "c3": c3,
        "c4": c4,
        "c5": c5,
        "c6": c6,
        "c7": c7,
    }


def riccati_chain(tree, w_prev):
    """Deterministic finite-horizon LQ solve of a single-path tree.

    Backward value-function recursion V_t(x) = x'P_t x / 2 - p_t'x + c_t,
    then a forward rollout.  Entirely independent of the KKT route.
    """
    T = tree.horizon
    assert all(len(tree.children[i]) <= 1 for i in range(tree.node_count))
    data = [NodeRow(tree, t) for t in range(T + 1)]
    P = {T: data[T].Q}
    p = {T: data[T].q}
    uT = np.linalg.solve(data[T].R, data[T].r)
    c = {T: -0.5 * float(data[T].r @ uT)}
    K, kv = {}, {}
    for t in range(T - 1, -1, -1):
        nd, nxt = data[t], data[t + 1]
        A, B, d = nxt.A, nxt.B, nxt.d
        G = nd.R + B.T @ P[t + 1] @ B
        K[t] = -np.linalg.solve(G, B.T @ P[t + 1] @ A)
        kv[t] = np.linalg.solve(
            G, nd.r + B.T @ p[t + 1] - B.T @ P[t + 1] @ d
        )
        Phi = A + B @ K[t]
        e = B @ kv[t] + d
        Pt = nd.Q + Phi.T @ P[t + 1] @ Phi + K[t].T @ nd.R @ K[t]
        P[t] = 0.5 * (Pt + Pt.T)
        p[t] = (
            nd.q
            + K[t].T @ nd.r
            - K[t].T @ nd.R @ kv[t]
            - Phi.T @ P[t + 1] @ e
            + Phi.T @ p[t + 1]
        )
        c[t] = (
            c[t + 1]
            + 0.5 * float(kv[t] @ (nd.R @ kv[t]))
            - float(nd.r @ kv[t])
            + 0.5 * float(e @ (P[t + 1] @ e))
            - float(p[t + 1] @ e)
        )
    x_prev, u_prev = w_prev
    x = {0: data[0].A @ x_prev + data[0].B @ u_prev + data[0].d}
    u = {}
    for t in range(T):
        u[t] = K[t] @ x[t] + kv[t]
        x[t + 1] = data[t + 1].A @ x[t] + data[t + 1].B @ u[t] + data[t + 1].d
    u[T] = uT
    objective = math.fsum(stage_cost(data[t], x[t], u[t]) for t in range(T + 1))
    value = 0.5 * float(x[0] @ (P[0] @ x[0])) - float(p[0] @ x[0]) + c[0]
    assert abs(objective - value) <= 1e-8 * (1.0 + abs(objective))
    return x, u, objective


def here_and_now_dense(tree, w_prev):
    """Stagewise-control baseline from the dense weighted optimality system.

    The system of :func:`_weighted_kkt` over the whole tree is restricted
    to one control per stage: each node's control columns are merged into
    its stage's shared control ``v_t``, and its control rows are summed
    likewise, while states and multipliers stay per node.  It is solved
    densely, without scaling and without eliminating the states, so open-
    loop unstable dynamics do not enter its conditioning.  Returns
    ``(v, x, objective)`` with ``v`` of shape (T+1, nu) and ``x`` (N, nx).
    """
    nx, nu, N, T = tree.nx, tree.nu, tree.node_count, tree.horizon
    nodes = tuple(range(N))
    M, idx, cond = _weighted_kkt(tree, 0, nodes)
    rhs = _weighted_rhs(tree, 0, nodes, idx, cond, w_prev)
    ctrl = idx[:, nx : nx + nu]
    keep = np.setdiff1d(np.arange(len(M)), ctrl.ravel())
    E = np.zeros((len(M), keep.size + (T + 1) * nu))
    E[keep, np.arange(keep.size)] = 1.0
    E[ctrl, keep.size + nu * tree.stage[:, None] + np.arange(nu)] = 1.0
    zeta = np.linalg.solve(E.T @ M @ E, E.T @ rhs)
    x = (E @ zeta)[idx[:, :nx]]
    v = zeta[keep.size :].reshape(T + 1, nu)
    objective = math.fsum(
        tree.pi[n] * stage_cost(NodeRow(tree, n), x[n], v[int(tree.stage[n])])
        for n in nodes
    )
    return v, x, objective


def dense_blocks(row_nodes, col_nodes, blocks, pi=None):
    """Dense form of a block matrix between two node sets.

    ``blocks`` is a ``(rows, cols, values)`` triple: block m is the dense
    matrix ``values[m]`` at row node ``rows[m]`` and column node
    ``cols[m]``; missing pairs are zero and repeated pairs add up.  With
    ``pi`` given, block (i, j) is first rescaled by sqrt(pi_i / pi_j).
    """
    rows, cols, values = blocks
    nr, nc = np.shape(values)[1:]
    rpos = {int(n): a for a, n in enumerate(row_nodes)}
    cpos = {int(n): b for b, n in enumerate(col_nodes)}
    dense = np.zeros((nr * len(row_nodes), nc * len(col_nodes)))
    for i, j, blk in zip(rows, cols, values):
        a, b = rpos[int(i)] * nr, cpos[int(j)] * nc
        scale = 1.0 if pi is None else math.sqrt(pi[i] / pi[j])
        dense[a : a + nr, b : b + nc] += scale * np.asarray(blk)
    return dense


def dense_pi_norm(pi, row_nodes, col_nodes, blocks):
    """Probability-weighted operator norm of a block matrix, by one dense SVD
    of its rescaled dense form (:func:`dense_blocks`)."""
    if len(blocks[2]) == 0:
        return 0.0
    dense = dense_blocks(row_nodes, col_nodes, blocks, pi)
    return float(np.linalg.svd(dense, compute_uv=False)[0])


def dense_regularity(tree, nodes):
    """(||H||, min eig F F', min eig of G on null F) of one subproblem, dense.

    Written from the probability-scaled optimality conditions of the
    subproblem over ``nodes`` (root first): with every variable of node i
    scaled by sqrt(pi_i / pi_root), node i's dynamics row reads
    x_i - sqrt(pi_i / pi_parent) (A_i x_parent + B_i u_parent), which makes
    the constraint Jacobian F over the stacked (x, u) blocks, and G is block
    diagonal in the symmetric parts of Q_i and R_i.  H = [[G, F'], [F, 0]]
    puts every (x, u) block before every multiplier; the spectra do not
    depend on that order.  The null space of F comes from a full SVD.
    """
    nx, nu = tree.nx, tree.nu
    nw, m = nx + nu, len(nodes)
    local = {n: a for a, n in enumerate(nodes)}
    F = np.zeros((m * nx, m * nw))
    G = np.zeros((m * nw, m * nw))
    for n in nodes:
        a, nd = local[n], NodeRow(tree, n)
        xs, us = slice(a * nw, a * nw + nx), slice(a * nw + nx, (a + 1) * nw)
        row = slice(a * nx, (a + 1) * nx)
        G[xs, xs] = 0.5 * (nd.Q + nd.Q.T)
        G[us, us] = 0.5 * (nd.R + nd.R.T)
        F[row, xs] = np.eye(nx)
        if n != nodes[0]:
            par = int(tree.parent[n])
            b = local[par]
            ratio = math.sqrt(tree.pi[n] / tree.pi[par])
            F[row, b * nw : (b + 1) * nw] = -ratio * np.hstack([nd.A, nd.B])
    H = np.block([[G, F.T], [F, np.zeros((m * nx, m * nx))]])
    _, s, Vt = np.linalg.svd(F)
    Z = Vt[m * nx :].T
    return (
        float(np.abs(np.linalg.eigvalsh(H)).max()),
        float(s.min()) ** 2,
        float(np.linalg.eigvalsh(Z.T @ G @ Z).min()),
    )


def validate_tree_reference(tree, prob_tol=1e-12, sym_tol=1e-12):
    """Violation list of a scenario tree by plain loops over its nodes.

    Children and the horizon are derived here from ``parent`` and
    ``stage``; the asymmetry of Q and R is ``||M - M'||_2 / max(1,
    ||M||_2)`` per matrix, taken only on nodes whose data is finite.
    """
    parent = [int(p) for p in tree.parent]
    stage = [int(t) for t in tree.stage]
    pi = [float(p) for p in tree.pi]
    n = len(parent)
    if n == 0:
        return ["empty tree"]
    v = []
    if parent[0] != -1:
        v.append("node 0 is not a root (parent != -1)")
    for i in range(1, n):
        p = parent[i]
        if p == -1:
            v.append(f"node {i}: multiple roots")
        elif not 0 <= p < i:
            v.append(f"node {i}: parent {p} does not precede child")
    if stage[0] != 0:
        v.append("root stage != 0")
    for i in range(1, n):
        p = parent[i]
        if 0 <= p < n and stage[i] != stage[p] + 1:
            v.append(f"node {i}: stage {stage[i]} != parent stage + 1")
        if stage[i] < stage[i - 1]:
            v.append(f"node {i}: order not breadth-first (stage decreases)")
    if abs(pi[0] - 1.0) > prob_tol:
        v.append(f"root probability {pi[0]:.12g} != 1")
    for i in range(n):
        if not math.isfinite(pi[i]):
            v.append(f"node {i}: probability {pi[i]:.12g} is not finite")
        elif pi[i] <= 0:
            v.append(f"node {i}: probability {pi[i]:.12g} <= 0")
    kids = [[] for _ in range(n)]
    for i in range(1, n):
        if 0 <= parent[i] < n:
            kids[parent[i]].append(i)
    horizon = max(stage)
    for i in range(n):
        if kids[i]:
            s = sum(pi[c] for c in kids[i])
            if abs(s - pi[i]) > prob_tol:
                v.append(
                    f"node {i}: children sum {s:.12g} != parent probability "
                    f"{pi[i]:.12g}"
                )
        elif stage[i] != horizon:
            v.append(f"node {i}: leaf at wrong stage {stage[i]} (expected {horizon})")
    for i in range(n):
        nd = NodeRow(tree, i)
        bad = [f for f in FIELDS if not np.all(np.isfinite(getattr(nd, f)))]
        if bad:
            v.append(f"node {i}: non-finite entries in {', '.join(bad)}")
        else:
            defect = max(
                np.linalg.norm(M - M.T, 2) / max(1.0, np.linalg.norm(M, 2))
                for M in (np.asarray(nd.Q), np.asarray(nd.R))
            )
            if defect > sym_tol:
                v.append(f"node {i}: Q or R not symmetric within {sym_tol:g}")
    return v
