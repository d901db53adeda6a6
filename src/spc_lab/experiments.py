"""Certified instance generation and automated bound verification.

The generator builds a nominal system whose closed loops are exact
orthogonal contractions, then perturbs every node inside the stability
margin, so the claimed decay certificates hold by construction and are
re-verified before anything is returned.  The check routines measure
both sides of every performance bound by exact enumeration over the
tree and report datapoint-level pass/fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import (
    checked_regret,
    hypothetical_state,
    recursion_matrices,
    run_spc,
    run_spc_windows,
    solve_optimal,
)
from .kkt import _mv, solve_extensive
from .norms import Blocks, stage_moments, stage_norm, stage_perturbation_moments
from .stability import (
    GainCertificate,
    check_detectability,
    check_stabilizability,
    compute_constants,
    pair_norm,
    perturbation_margin,
)
from .tree import (
    TreeError,
    build_tree_explicit,
    predecessor_pairs,
    spectral_norms,
)

PASS_SLACK = 1e-9
SLOPE_FLOOR = 1e-8  # times |J_star|: smaller regrets are mostly cancellation


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of one generated problem family member."""

    n_x: int
    n_u: int
    T: int
    branching: int
    L: float
    alpha: float
    gamma: float
    noise_scale: float
    seed: int

    def __post_init__(self):
        if self.n_x < 1 or self.n_u < 1:
            raise TreeError("dimensions must be >= 1")
        if self.T < 1:
            raise TreeError("horizon must be >= 1")
        if self.branching < 1:
            raise TreeError("branching must be >= 1")
        if not self.L >= 1.0 or not math.isfinite(self.L):
            raise TreeError("L must be finite and >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise TreeError("alpha must lie strictly inside (0, 1)")
        if not 0.0 < self.gamma <= self.L:
            raise TreeError("gamma must lie in (0, L]")
        if self.noise_scale < 0.0:
            raise TreeError("noise_scale must be >= 0")
        if self.seed < 0:
            raise TreeError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class BoundPoint:
    """One measured-versus-bound datapoint."""

    index: object
    measured: float
    bound: float
    applies: bool = True

    @property
    def slack(self):
        return self.bound - self.measured

    def ok(self, slack=PASS_SLACK):
        if not self.applies:
            return True
        return self.measured <= self.bound + slack * (1.0 + self.bound)


@dataclass(frozen=True)
class BoundReport:
    """Datapoint list for one named bound, with an overall verdict."""

    name: str
    points: tuple
    passed: bool
    constants: object
    details: dict

    def failures(self):
        return [p for p in self.points if not p.ok()]


def _report(name, points, constants, details=None, extra_ok=True):
    points = tuple(points)
    passed = extra_ok and all(p.ok() for p in points)
    return BoundReport(name, points, bool(passed), constants, details or {})


def _mul(a, b):
    """Product with the 0 * inf = 0 convention used in bound assembly:
    a vanishing driver nullifies its term even when its coefficient has
    overflowed to infinity."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@dataclass(frozen=True)
class CertifiedInstance:
    """Generated tree plus the certificates and constants it satisfies."""

    tree: object
    certificates: dict
    constants: object
    w_prev: tuple


def _node_rng(seed, i):
    """The generator of node i's data: the reference that
    :func:`_node_streams` reproduces, and the redraw path of
    :func:`_node_draws`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, i)))


# numpy's SeedSequence hash (uint32 words, a pool of four) and PCG64's
# multiplier; _node_streams checks its use of them against numpy on every call
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash(value, h, mult):
    """One word through SeedSequence's hash under the running multiplier h,
    and h's next value; ``value`` is a Python int or a uint32 array."""
    value = value ^ h
    h = h * mult & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    r = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _spawn_words(seed, nodes):
    """``SeedSequence(seed, spawn_key=(0, i)).generate_state(4, np.uint64)``
    for every node i of the uint32 array ``nodes``, shape (nodes.size, 4).
    The seed's words and the spawn key's 0 are Python ints; only the last
    word, i, is an array."""
    seed = int(seed)
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy)) + [0, nodes]
    h, pool = _INIT_A, []
    for e in entropy[:4]:
        word, h = _hash(e, h, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, h = _hash(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for e in entropy[4:]:
        for dst in range(4):
            word, h = _hash(e, h, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    h, out = _INIT_B, np.empty((nodes.size, 8), np.uint32)
    for k in range(8):
        out[:, k], h = _hash(pool[k % 4], h, _MULT_B)
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _pcg64_state(words):
    """PCG64's state after seeding from four words: (words[0], words[1]) is
    the initial state and (words[2], words[3]) the stream, high word first,
    and seeding steps the generator twice."""
    w0, w1, w2, w3 = words
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = (((w0 << 64 | w1) + inc) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _node_streams(seed, N):
    """Node i's generator for i = 0, ..., N - 1: one generator whose PCG64 is
    set to each node's seeded state in turn, so its draws are those of
    :func:`_node_rng`.  Raises RuntimeError before the first node if the
    batch disagrees with numpy's own seeding of node 0 or node N - 1."""
    ends = _spawn_words(seed, np.array([0, N - 1], dtype=np.uint32)).tolist()
    for i, words in zip((0, N - 1), ends):
        rng = _node_rng(seed, i)
        if rng.bit_generator.state != _pcg64_state(words):
            raise RuntimeError(
                f"batched seeding of node {i} disagrees with numpy's "
                "SeedSequence and PCG64; this numpy seeds differently"
            )
    bits = rng.bit_generator
    # small blocks of nodes: a large buffer, once freed, raises glibc's mmap
    # threshold, and with it the peak RSS of everything generate does later
    for start in range(0, N, 256):
        nodes = np.arange(start, min(start + 256, N), dtype=np.uint32)
        for words in _spawn_words(seed, nodes).tolist():
            bits.state = _pcg64_state(words)
            yield rng


def _node_draws(seed, N, nx, nu):
    """The per-node draws of :func:`generate_certified_instance`, stacked
    over nodes: six amplitudes per node and a dict of raw A, B, C and unit
    q, r, d.  Node i makes one ``random`` and one ``standard_normal``
    call, whose values are those of the separate calls in the documented
    order; the amplitudes (numpy's ``uniform(0.5, 1)`` is 0.5 + 0.5 u, and
    0.5 u is exact) and the unit vectors are scaled after the loop, and a
    node with a zero-norm draw is drawn again call by call."""
    shapes = {"A": (nx, nx), "B": (nx, nu), "C": (nx, nx), "q": (nx,), "r": (nu,), "d": (nx,)}
    sizes = [math.prod(s) for s in shapes.values()]
    amp, Z = np.empty((N, 6)), np.empty((N, sum(sizes)))
    for i, rng in enumerate(_node_streams(seed, N)):
        amp[i] = rng.random(6)
        Z[i] = rng.standard_normal(Z.shape[1])
    amp *= 0.5
    amp += 0.5
    raw = dict(zip(shapes, np.split(Z, np.cumsum(sizes[:-1]), axis=1)))
    # sqrt(v @ v) row by row: the stacked matmul runs the dot of v @ v per row
    norm = {f: np.sqrt((raw[f][:, None] @ raw[f][:, :, None])[:, 0, 0]) for f in "qrd"}
    for i in np.flatnonzero(np.any([norm[f] == 0.0 for f in "qrd"], axis=0)):
        # a unit vector redrawn after a zero norm moves the node's later draws
        rng = _node_rng(seed, i)
        amp[i] = rng.uniform(0.5, 1.0, size=6)
        for f in "ABC":
            raw[f][i] = rng.standard_normal(shapes[f]).ravel()
        for f in "qrd":
            raw[f][i], norm[f][i] = _unit(rng, shapes[f]), 1.0
    return amp, {f: (raw[f] / norm[f][:, None] if f in "qrd"
                     else raw[f].reshape((N, *shapes[f]))) for f in shapes}


def _unit(rng, n):
    # sqrt(v @ v) is the bits of np.linalg.norm(v), without its overhead
    v = rng.standard_normal(n)
    nrm = math.sqrt(v @ v)
    while nrm == 0.0:
        v = rng.standard_normal(n)
        nrm = math.sqrt(v @ v)
    return v / nrm


def _scaled(M, target):
    """Stack ``M`` of shape (k, m, n), each matrix rescaled to spectral
    norm ``target`` (a scalar or one per matrix); exact zeros where the
    target is 0."""
    target = np.broadcast_to(target, M.shape[:1])
    out = M * (target / np.linalg.norm(M, 2, axis=(1, 2)))[:, None, None]
    out[target == 0.0] = 0.0
    return out


def generate_certified_instance(spec):
    """Random instance provably within the stability margins.

    Construction: one orthogonal matrix O gives the nominal closed loop
    alpha*O, whose powers have norm exactly alpha^t; nominal B and gain
    K are fixed-norm random matrices and A is backed out of the loop.
    Per-node deviations stay inside half the margin for A and a
    (2L)-th of it for B and the detectability output map, so every
    closed-loop path product is bounded by (alpha + margin)^t <=
    alpha^{t/2}, which is the (L, sqrt(alpha)) certificate the instance
    ships with.  Costs use Q = C^2 with C kept positive definite, and
    R = gamma*I.

    Randomness: PCG64 generators seeded from SeedSequence(seed,
    spawn_key=s) with s = (0, node) for per-node data, (1, 0) for the
    nominal system, (2, 0) for branch probabilities, and (3, 0) for the
    initial pair, so any subset is reproducible in isolation.  Node i
    draws, in order: six amplitudes ``uniform(0.5, 1, 6)``, standard
    normal raw matrices for A (nx, nx), B (nx, nu) and C (nx, nx), then
    unit vectors for q, r and d (a standard normal vector over its norm,
    redrawn while that norm is 0).  These are numpy's own streams, seeded
    in one checked batch: SeedSequence's hash runs vectorized over blocks
    of nodes, one reused PCG64 is set to each node's seeded state in
    turn, and nodes 0 and N - 1 are compared with numpy's SeedSequence
    and PCG64 on every call (see
    :func:`_node_streams`).  Only the draws run node by node, one
    ``random`` and one ``standard_normal`` call per node (see
    :func:`_node_draws`); the amplitude and unit scalings, the spectral
    scalings (raw C symmetrized first), ``Q = C @ C`` and the data-bound
    check run on arrays stacked over the nodes.
    """
    L, alpha, gamma = float(spec.L), float(spec.alpha), float(spec.gamma)
    alpha_cert = math.sqrt(alpha)
    delta = perturbation_margin(L, alpha)
    sigma = min(float(spec.noise_scale), 1.0)
    if sigma > 0.0 and 0.5 * sigma * delta / (2.0 * L) == 0.0:
        raise TreeError(
            f"stability margin {delta:.3e} at (L={L:g}, alpha={alpha:g}) "
            "underflows against the requested noise scale"
        )
    nx, nu, T, m = spec.n_x, spec.n_u, spec.T, spec.branching

    rng_nom = np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(1, 0))
    )
    rng_prob = np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(2, 0))
    )
    rng_init = np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(3, 0))
    )

    M = rng_nom.standard_normal((nx, nx))
    Qf, Rf = np.linalg.qr(M)
    O = Qf @ np.diag(np.sign(np.diag(Rf)))
    Phi_nom = alpha * O
    B_nom = _scaled(rng_nom.standard_normal((1, nx, nu)), 0.5)[0]
    K_nom = _scaled(rng_nom.standard_normal((1, nu, nx)), 0.25)[0]
    A_nom = Phi_nom + B_nom @ K_nom
    C_nom = 0.3 * np.eye(nx)
    K_obs = (B_nom @ K_nom) / 0.3
    R = gamma * np.eye(nu)

    # stage by stage: the m children of each stage-(t-1) node, in node order
    parents, probs, start = [np.array([-1])], [np.array([1.0])], 0
    for t in range(1, T + 1):
        width = probs[-1].size
        raw = rng_prob.uniform(0.2, 1.0, size=(width, m))
        parents.append(np.repeat(start + np.arange(width), m))
        probs.append((probs[-1][:, None] * (raw / raw.sum(1, keepdims=True))).ravel())
        start += width
    stages = np.repeat(np.arange(T + 1), [p.size for p in probs])
    parents, probs = np.concatenate(parents), np.concatenate(probs)

    dev_c_cap = min(delta / (2.0 * L), 0.29)
    N = len(parents)
    amp, draws = _node_draws(spec.seed, N, nx, nu)
    C = draws["C"]
    C = C_nom + _scaled(0.5 * (C + C.transpose(0, 2, 1)), sigma * dev_c_cap * amp[:, 2])
    stack = {
        "A": A_nom + _scaled(draws["A"], sigma * (delta / 2.0) * amp[:, 0]),
        "B": B_nom + _scaled(draws["B"], sigma * (delta / (2.0 * L)) * amp[:, 1]),
        "Q": C @ C,
        "R": np.repeat(R[None], N, axis=0),
    }
    for name, k in (("q", 3), ("r", 4), ("d", 5)):
        stack[name] = np.minimum(spec.noise_scale * amp[:, k], L)[:, None] * draws[name]
    tree = build_tree_explicit(parents, stages, probs, stack)

    x_prev = spec.noise_scale * rng_init.uniform(0.5, 1.0) * _unit(rng_init, nx)
    u_prev = spec.noise_scale * rng_init.uniform(0.5, 1.0) * _unit(rng_init, nu)
    w_prev = (x_prev, u_prev)

    stab, det = (
        GainCertificate(ids, np.broadcast_to(K, (ids.size,) + K.shape), L, alpha_cert, role)
        for ids, K, role in (
            (np.flatnonzero(tree.stage < T), K_nom, "stabilizability"),
            (np.flatnonzero(tree.stage >= 1), K_obs, "detectability"),
        )
    )
    for name, check in (
        ("stabilizability", check_stabilizability(tree, stab)),
        ("detectability", check_detectability(tree, det)),
    ):
        if not check.passed:
            raise TreeError(
                f"generated instance failed its {name} certificate: "
                f"{check.message}"
            )
    worst = np.max(
        [spectral_norms(stack[f]) for f in "ABQR"]
        + [np.linalg.norm(stack[f], axis=1) for f in "qrd"],
        axis=0,
    )
    bad = np.flatnonzero(worst > L + 1e-9)
    if bad.size:
        raise TreeError(
            f"generated node {bad[0]} exceeds the data bound: "
            f"{worst[bad[0]]:.6g} > {L:g}"
        )
    constants = compute_constants(
        L, alpha_cert, gamma, tree=tree, w_prev=w_prev
    )
    return CertifiedInstance(
        tree, {"stabilizability": stab, "detectability": det}, constants, w_prev
    )


# ---------------------------------------------------------------------------
# moment helpers


def _drivers(tree, constants, w_prev):
    """The two drivers of every envelope: the largest stage perturbation
    moment D (``constants.D`` when it holds one) and the committed pair's
    norm."""
    D = getattr(constants, "D", math.nan)
    if not math.isfinite(D):
        D = float(stage_perturbation_moments(tree).max())
    return D, pair_norm(w_prev)


def _envelope(coef, L, rate, wbar, moments, t, tau=0):
    """Decay envelope ``coef (2 L rate^(t - tau) wbar + sum_t' rate^|t - t'|
    m_t')`` at stage t, over the stages t' >= tau of ``moments``."""
    inner = math.fsum(
        [_mul(2.0 * L * rate ** (t - tau), wbar)]
        + [_mul(rate ** abs(t - tp), moments[tp]) for tp in range(tau, len(moments))]
    )
    return _mul(coef, inner)


# ---------------------------------------------------------------------------
# bound checks


def regret_sweep(tree, constants, w_prev, W_list):
    """Regret at each window against the exponential regret bound.

    Rows carry (W, J_W, J_star, regret, bound, applies); the bound rows
    apply only at windows past the theory's threshold, which the report
    states rather than extrapolating below it.  Also fits the slope of
    log-regret over the leading stretch of rows whose regret exceeds
    ``SLOPE_FLOOR * |J_star|``.
    """
    c = constants
    W_values = sorted(set(int(W) for W in W_list))
    for W in W_values:
        if W < 0 or W > tree.horizon:
            raise TreeError(f"window {W} outside [0, {tree.horizon}]")
    D, wbar = _drivers(tree, c, w_prev)
    coeff = math.fsum(
        [
            _mul(c.c5, D * D * tree.horizon),
            _mul(c.c6, D * wbar),
            _mul(c.c7, wbar * wbar),
        ]
    )

    J_star = solve_optimal(tree, w_prev).objective
    points, rows = [], []
    for trace in run_spc_windows(tree, w_prev, W_values):
        W, J_W = trace.W, trace.J_W
        regret = checked_regret(J_W, J_star)
        bound = _mul(coeff, c.rho**W)
        applies = W >= c.W_bar_ceil
        points.append(BoundPoint(W, regret, bound, applies=applies))
        rows.append(
            {
                "W": W,
                "J_W": J_W,
                "J_star": J_star,
                "regret": regret,
                "bound": bound,
                "applies": applies,
            }
        )

    exact_ok = all(row["regret"] <= 1e-8 for row in rows if row["W"] == tree.horizon)

    positive = []
    for row in rows:
        if row["regret"] > SLOPE_FLOOR * abs(J_star):
            positive.append(row)
        else:
            break
    if len(positive) >= 2:
        xs = np.array([row["W"] for row in positive], dtype=float)
        ys = np.array(
            [math.log(max(row["regret"], 1e-14)) for row in positive]
        )
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")

    details = {
        "rows": rows,
        "slope": slope,
        "log_rho": math.log1p(-c.one_minus_rho),
        "W_bar": c.W_bar,
        "W_bar_ceil": c.W_bar_ceil,
        "D": D,
        "w_bar_norm": wbar,
    }
    return _report("dynamic_regret_decay", points, c, details, extra_ok=exact_ok)


def open_loop_bound_check(tree, constants, tau_nodes, W, w_prev):
    """Per-stage second moments of one subtree plan against the
    open-loop decay envelope, conditioned on each given start node."""
    c = constants
    wbar = pair_norm(w_prev)
    points = []
    for k in tau_nodes:
        tau = int(tree.stage[k])
        sol = solve_extensive(tree, k, W, w_prev)
        t_hi = min(tau + W, tree.horizon)
        node = sol.nodes
        cond, stage = tree.pi[node] / tree.pi[k], tree.stage[node]
        p, w = tree.arrays.p[node], np.hstack([sol.x, sol.u])
        moments, measured = (stage_moments(cond, V, stage, t_hi) for V in (p, w))
        for t in range(tau, t_hi + 1):
            bound = _envelope(c.c1, c.L, c.rho, wbar, moments, t, tau)
            points.append(BoundPoint((k, t), measured[t], bound))
    return _report(
        "open_loop_decay",
        points,
        c,
        {"W": int(W), "tau_nodes": list(tau_nodes), "w_bar_norm": wbar},
    )


def eisse_check(tree, constants, w_prev):
    """Per-stage second moments of the optimal plan against the
    input-to-state envelope with its geometric-tail perturbation term."""
    c = constants
    D, wbar = _drivers(tree, c, w_prev)
    sol = solve_optimal(tree, w_prev)
    tail = _mul(2.0 * D, 1.0 / c.one_minus_rho if c.one_minus_rho > 0 else float("inf"))
    w = np.hstack([sol.x, sol.u])
    measured = stage_moments(tree.pi / tree.pi[0], w, tree.stage, tree.horizon)
    points = []
    for t in range(tree.horizon + 1):
        inner = math.fsum([_mul(2.0 * c.L * c.rho**t, wbar), tail])
        points.append(BoundPoint(t, measured[t], _mul(c.c1, inner)))
    return _report(
        "expected_state_envelope", points, c, {"D": D, "w_bar_norm": wbar}
    )


def closed_loop_bound_check(tree, constants, w_prev, W):
    """Per-stage second moments of the receding-horizon trace against
    the closed-loop envelope (rate sqrt(rho), prefactor c2).

    Below the window threshold the theory is silent, so the report is
    marked not applicable instead of failed.
    """
    c = constants
    applicable = W >= c.W_bar_ceil
    wbar = pair_norm(w_prev)
    moments = stage_perturbation_moments(tree).tolist()
    trace = run_spc(tree, w_prev, W)
    measured = stage_moments(
        tree.pi / tree.pi[0], np.hstack([trace.x, trace.u]), tree.stage, tree.horizon
    )
    points = []
    for t in range(tree.horizon + 1):
        bound = _envelope(c.c2, c.L, math.sqrt(c.rho), wbar, moments, t)
        points.append(BoundPoint(t, measured[t], bound, applies=applicable))
    return _report(
        "closed_loop_envelope",
        points,
        c,
        {"W": int(W), "applicable": applicable, "W_bar": c.W_bar, "w_bar_norm": wbar},
    )


# ---------------------------------------------------------------------------
# closed-loop machinery bound suite


def lemma_suite(tree, constants, W, w_prev=None):
    """Machinery-level checks behind the main theorems.

    Four reports: decay of closed-loop stage products, solution-map
    truncation gaps between window W and the full horizon, the gap
    between committed pairs and their full-horizon re-solves, and the
    stage-recursion expansion identity.  Every stage matrix is held as
    stacked blocks with one block per row or per column, and measured by
    :func:`stage_norm`.
    """
    c = constants
    T = tree.horizon
    if w_prev is None:
        w_prev = (np.zeros(tree.nx), np.zeros(tree.nu))
    D, wbar = _drivers(tree, c, w_prev)
    levels = [tree.stage_nodes(t) for t in range(T + 1)]
    anc, parent, pi, arr = tree.ancestors, tree.parent, tree.pi, tree.arrays
    nw, AB = tree.nx + tree.nu, np.concatenate([arr.A, arr.B], axis=2)
    # one ancestor stage t at a time, its full-horizon and depth-W Psi
    # slabs (row j - levels[t][0]) give its nodes' transfers S (own block
    # times the injection [0; A B] of the parent's pair) and window terms
    # sum_j Psi_kj p_j, and the truncation-gap rows (t, t' >= t)
    S_inf, S_W = np.empty((2, tree.node_count, nw, nw))
    drive, psi_points = np.empty((tree.node_count, nw)), []
    for t in range(T + 1):
        at, first = levels[t], levels[t][0]
        Psi_inf = recursion_matrices(tree, T, t)
        Psi_W = Psi_inf if W >= T - t else recursion_matrices(tree, W, t)
        S_inf[at], S_W[at] = (Psi[: at.size, :, nw:] @ AB[at] for Psi in (Psi_inf, Psi_W))
        # each root's window terms, summed in ascending j
        node = first + np.arange(len(Psi_W))
        slot = (anc[node, t] - first)[:, None] * nw + np.arange(nw)
        terms = np.einsum("jab,jb->ja", Psi_W, arr.p[node]).ravel()
        drive[at] = np.bincount(slot.ravel(), terms, at.size * nw).reshape(-1, nw)
        for tp in range(t, T + 1):
            cols, rows = levels[tp], levels[tp] - first
            gap = Psi_inf[rows] - Psi_W[rows] if tp <= t + W else Psi_inf[rows]
            norm = stage_norm(pi, Blocks(anc[cols, t], cols, gap))
            bound = _mul(2.0 * c.c1**2 * c.L, c.rho ** (2 * W - tp + t))
            psi_points.append(BoundPoint(("psi", t, tp), norm, bound))
        del Psi_inf, Psi_W, gap
    reports = []

    # P[i] = S_i S_parent(i) ... down to stage t2 + 1: row node i, column
    # node anc[i, t2]
    points = []
    P = np.zeros(S_inf.shape)
    for t2 in range(T):
        P[levels[t2]] = np.eye(nw)
        for t in range(t2 + 1, T + 1):
            at = levels[t]
            P[at] = S_inf[at] @ P[parent[at]]
            bound = _mul(2.0 * c.c1 * c.L / c.rho, c.rho ** (t - t2))
            norm = stage_norm(pi, Blocks(at, anc[at, t2], P[at]))
            points.append(BoundPoint((t, t2), norm, bound))
    reports.append(_report("closed_loop_product_decay", points, c, {"W": T}))

    points = psi_points
    for t in range(1, T + 1):
        at = levels[t]
        norm = stage_norm(pi, Blocks(at, parent[at], S_inf[at] - S_W[at]))
        bound = _mul(4.0 * c.c1**2 * c.L**2, c.rho ** (2 * W))
        points.append(BoundPoint(("S", t), norm, bound))
    reports.append(_report("truncation_gap", points, c, {"W": int(W)}))

    trace = run_spc(tree, w_prev, W)
    w = np.hstack([trace.x, trace.u])
    measured = stage_moments(pi, w - hypothetical_state(tree, trace), tree.stage, T)
    sqrt_rho = math.sqrt(c.rho)
    points = []
    for t in range(T + 1):
        inner = math.fsum([_mul(c.c3, D), _mul(_mul(c.c4, sqrt_rho**t), wbar)])
        points.append(BoundPoint(t, measured[t], _mul(inner, c.rho**W)))
    reports.append(
        _report(
            "one_step_vs_full_horizon_gap",
            points,
            c,
            {"W": int(W), "D": D, "w_bar_norm": wbar},
        )
    )

    # one step: each node's window term plus the transfer of its parent's
    # committed pair (the initial pair at the root).  Expansion: every
    # stage's window term, and the root's transfer, carried forward
    # through the stage products.
    prev = np.hstack(predecessor_pairs(tree, trace.x, trace.u, w_prev))
    one_step = drive + _mv(S_W, prev)
    drive[0] = one_step[0]
    expansion = np.zeros_like(w)
    for t2 in range(T + 1):
        carried = np.zeros_like(w)
        carried[levels[t2]] = drive[levels[t2]]
        for t in range(t2 + 1, T + 1):
            at = levels[t]
            carried[at] = _mv(S_W[at], carried[parent[at]])
        expansion += carried
    diff = stage_moments(pi, expansion - w, tree.stage, T)
    resid = stage_moments(pi, one_step - w, tree.stage, T)
    points = []
    for t in range(T + 1):
        points.append(BoundPoint(("expansion", t), diff[t], 1e-8))
        if t >= 1:
            points.append(BoundPoint(("one_step", t), resid[t], 1e-8))
    reports.append(_report("recursion_expansion", points, c, {"W": int(W)}))
    return reports
