"""Stability certificates, perturbation margins, and derived constants.

Uniform tree stability asks that every ancestor-to-descendant transition
product contract like ``L * alpha**dt``; stabilizability and
detectability phrase the same decay for gain-corrected dynamics.  From
the triple (L, alpha, gamma) a chain of conditioning constants follows,
ending in the decay rate ``rho``, the horizon threshold ``W_bar``, and
the regret prefactors c5..c7.

The chain is numerically delicate: ``rho`` sits within an ulp of 1 for
realistic parameters, so every formula here is written against stable
complements (1-rho, 1-sqrt(rho), ...) computed without cancellation.
Values that genuinely exceed double range are reported as ``inf``, which
keeps every downstream inequality a valid (if useless) upper bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .norms import stage_perturbation_moments
from .tree import TreeError, committed_pair, spectral_norms

GAIN_TOL = 1e-10
STAB_TOL = 1e-9
PSD_TOL = 1e-10


@dataclass(frozen=True)
class ConstantsBundle:
    """Every derived constant for one (L, alpha, gamma) triple.

    ``rho`` is the float rounding of the true rate and may equal 1.0;
    the strictly positive complements ``one_minus_rho`` and friends are
    the authoritative witnesses that the true rate lies inside (0, 1),
    and are what the constant formulas were evaluated with.
    """

    L: float
    alpha: float
    gamma: float
    L_H: float
    gamma_F: float
    gamma_G: float
    mu_bar: float
    gamma_H: float
    rho: float
    one_minus_rho: float
    one_minus_sqrt_rho: float
    one_minus_rho2: float
    c1: float
    W_bar: float
    W_bar_ceil: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    D: float
    w_bar_norm: float

    def map_decay(self, gap):
        """Solution-map decay envelope ``c1 * rho**gap`` between stages
        ``gap`` apart; c1 lies in (0, inf] and rho in (0, 1]."""
        return self.c1 * self.rho ** gap


class StabilityResult(NamedTuple):
    passed: bool
    worst_pair: Optional[tuple]
    worst_ratio: float


@dataclass(frozen=True)
class CertificateCheck:
    passed: bool
    message: str
    stability: Optional[StabilityResult]


@dataclass(frozen=True)
class GainCertificate:
    """Gains stacked over node ids, with the claimed (L, alpha): ``K[i]``
    is the gain of node ``nodes[i]``.  ``nodes`` is a 1-D integer array
    and ``K`` a read-only float array of shape ``(len(nodes), rows, cols)``,
    so all gains of a certificate share one shape."""

    nodes: np.ndarray
    K: np.ndarray
    L: float
    alpha: float
    role: str = "stabilizability"

    def __post_init__(self):
        nodes, K = np.asarray(self.nodes, dtype=np.int64), np.asarray(self.K, dtype=float).view()
        if nodes.ndim != 1 or len(K) != nodes.size:
            raise ValueError(f"{nodes.size} node ids for {len(K)} gains")
        K.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "K", K)


def _inv(x):
    return math.inf if x == 0.0 else 1.0 / x


def pair_norm(w_prev):
    """Euclidean norm of the committed state-control pair ``w_prev``."""
    return float(np.linalg.norm(np.concatenate(committed_pair(w_prev))))


def perturbation_margin(L, alpha):
    """Allowed per-node deviation (sqrt(alpha) - alpha) / L."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if L < 1.0:
        raise ValueError(f"L must be >= 1, got {L}")
    return (math.sqrt(alpha) - alpha) / L


def compute_constants(L, alpha, gamma, tree=None, w_prev=None):
    """Evaluate the full constant chain for (L, alpha, gamma).

    ``L`` is raised to at least 1 and ``gamma`` capped at 1 (with a
    warning) before use.  When a tree is given, ``D`` is the largest
    per-stage root-conditional second-moment root of the perturbations,
    enumerated exactly; ``w_bar_norm`` records the committed pair's norm
    when one is given.  ``W_bar`` is reported raw and ceiled.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if L <= 0.0 or not math.isfinite(L):
        raise ValueError(f"L must be positive and finite, got {L}")
    if gamma <= 0.0 or not math.isfinite(gamma):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    Ln, gn = max(L, 1.0), min(gamma, 1.0)
    if Ln != L or gn != gamma:
        warnings.warn(
            f"normalized (L, gamma) from ({L}, {gamma}) to ({Ln}, {gn})",
            RuntimeWarning,
            stacklevel=2,
        )
    L, gamma = Ln, gn

    L_H = 2.0 * L + 1.0
    gamma_F = (1.0 - alpha) ** 2 / ((1.0 + L) ** 2 * L**2)
    gamma_G = gamma * (1.0 - alpha) ** 2 / (2.0 * (1.0 + L) ** 2 * L**4)
    mu_bar = (2.0 * L_H * L_H / gamma_G + gamma_G + L_H) / gamma_F
    gamma_H = 1.0 / (
        2.0 / gamma_G
        + (1.0 + 4.0 * L_H / gamma_G + 4.0 * L_H * L_H / (gamma_G * gamma_G))
        * L_H
        * (1.0 + mu_bar * L_H)
        / gamma_F
        + mu_bar
    )

    # rho^2 = (1 - x) / (1 + x) with x = (gamma_H / L_H)^2; all "one minus"
    # quantities flow from x without cancellation
    x = (gamma_H / L_H) ** 2
    om_rho2 = 2.0 * x / (1.0 + x)  # 1 - rho^2
    rho = math.sqrt(max(0.0, 1.0 - om_rho2))
    om_rho = om_rho2 / (1.0 + rho)  # 1 - rho
    sqrt_rho = math.sqrt(rho)
    om_sqrt_rho = om_rho / (1.0 + sqrt_rho)  # 1 - sqrt(rho)
    om_rho32 = om_rho + rho * om_sqrt_rho  # 1 - rho^(3/2)

    c1 = L_H * _inv(gamma_H * gamma_H * rho)

    if math.isfinite(c1) and om_rho > 0.0:
        num = (math.sqrt(alpha) - alpha) / (4.0 * c1 * c1 * L * L * L)
        W_bar = math.log(num) / (2.0 * math.log1p(-om_rho)) if num > 0 else math.inf
    else:
        W_bar = math.inf
    W_bar_ceil = float(math.ceil(W_bar)) if math.isfinite(W_bar) else math.inf

    def chain(c1):
        c1sq = c1 * c1
        c2 = 2.0 * c1sq * L * _inv(rho * om_rho32)
        c3 = 4.0 * c1sq * L * (2.0 * c2 * L * _inv(om_sqrt_rho) + _inv(om_rho))
        c4 = 8.0 * c1sq * c2 * L * L * L
        if not all(map(math.isfinite, (c2, c3, c4))):
            return c2, c3, c4, math.inf, math.inf, math.inf
        c5 = c3 * (
            2.0 * c2 * L * _inv(om_sqrt_rho) + c3 * L / 2.0 + 1.0
        ) + (2.0 * c1sq * c3 * L * L * _inv(om_rho2)) * (
            -1.0
            + 2.0 * c3 * L
            + 4.0 * _inv(om_rho)
            + 8.0 * c2 * L * _inv(om_sqrt_rho)
        )
        c6 = _inv(om_sqrt_rho) * (
            2.0 * c2 * c4 * L * _inv(om_sqrt_rho)
            + c3 * c4 * L
            + c4
            + 2.0 * c2 * c3 * L * L
            + (2.0 * c1sq * L * L * _inv(om_rho2))
            * (
                -c4
                + 2.0 * c3 * c4 * L
                + 4.0 * c4 * _inv(om_rho)
                + 8.0 * c2 * c4 * L * _inv(om_sqrt_rho)
                + 2.0 * c3 * L * (4.0 * c2 * L + c4)
            )
        )
        c7 = _inv(om_rho) * (
            c4 * (2.0 * c2 * L * L + c4 * L / 2.0)
            + 4.0 * c1sq * c4 * L * L * L * (4.0 * c2 * L + c4) * _inv(om_rho2)
        )
        return c2, c3, c4, c5, c6, c7

    if math.isfinite(c1):
        c2, c3, c4, c5, c6, c7 = chain(c1)
    else:
        c2 = c3 = c4 = c5 = c6 = c7 = math.inf

    D = math.nan
    if tree is not None:
        D = float(stage_perturbation_moments(tree).max())
    w_bar_norm = math.nan if w_prev is None else pair_norm(w_prev)

    return ConstantsBundle(
        L=L,
        alpha=alpha,
        gamma=gamma,
        L_H=L_H,
        gamma_F=gamma_F,
        gamma_G=gamma_G,
        mu_bar=mu_bar,
        gamma_H=gamma_H,
        rho=rho,
        one_minus_rho=om_rho,
        one_minus_sqrt_rho=om_sqrt_rho,
        one_minus_rho2=om_rho2,
        c1=c1,
        W_bar=W_bar,
        W_bar_ceil=W_bar_ceil,
        c2=c2,
        c3=c3,
        c4=c4,
        c5=c5,
        c6=c6,
        c7=c7,
        D=D,
        w_bar_norm=w_bar_norm,
    )


def check_stability_tree(tree, Phi, L, alpha):
    """Exhaustive ancestor-descendant path-product stability check.

    ``Phi`` holds every node's transition matrix, stacked over all nodes
    (row 0, the root's, unused).  For each strict ancestor-descendant pair
    (i, j) the product of matrices along the path (excluding i's stage,
    including j's) must satisfy ``||prod|| <= L * alpha**(t(j)-t(i))``
    within relative 1e-9.  Exact enumeration, one stacked product and norm
    per depth step over every descendant; the worst pair is the first
    maximum in (j, depth) order.  A product that overflows has a
    non-finite norm and fails with ratio inf.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, got {L}")
    stacked = np.asarray(Phi, dtype=float)
    if len(stacked) != tree.node_count:
        raise TreeError(
            f"missing transition matrices: {len(stacked)} rows for {tree.node_count} nodes"
        )
    js = np.flatnonzero(tree.stage >= 1)
    if not js.size:
        return StabilityResult(True, None, 0.0)
    M = stacked[js]
    # ratio[a, dt - 1]: the path from js[a] up dt stages, where it exists
    ratio, anc = np.empty((js.size, tree.horizon)), np.maximum(tree.parent[js], 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for dt in range(1, tree.horizon + 1):
            ratio[:, dt - 1] = spectral_norms(M) / (L * alpha**dt)
            M, anc = M @ stacked[anc], np.maximum(tree.parent[anc], 0)
    ratio[~np.isfinite(ratio)] = np.inf
    ratio[np.arange(1, tree.horizon + 1) > tree.stage[js, None]] = -np.inf
    a, dt = np.unravel_index(np.argmax(ratio), ratio.shape)
    worst, j = float(ratio[a, dt]), int(js[a])
    if not worst > 0.0:
        return StabilityResult(True, None, 0.0)
    pair = (int(tree.ancestors[j, tree.stage[j] - dt - 1]), j)
    return StabilityResult(worst <= 1.0 + STAB_TOL, pair, worst)


def _stacked_gains(cert, stages, shape, tree):
    """Gains of the nodes at ``stages``, stacked over all nodes (zero
    rows elsewhere), or the message of the first gain above ``cert.L``.

    Faults are taken in node order: an oversized gain before the first
    missing or misshaped one fails the check, the latter raise.  Ids that
    are not tree nodes are ignored.
    """
    nodes = np.flatnonzero(np.isin(tree.stage, stages))
    known = (cert.nodes >= 0) & (cert.nodes < tree.node_count)
    row = np.full(tree.node_count, -1)
    row[cert.nodes[known]] = np.flatnonzero(known)
    row = row[nodes]
    missing = np.flatnonzero(row < 0)
    k = missing[0] if missing.size else nodes.size
    gains = cert.K[row[:k]]
    if k and gains.shape[1:] != shape:
        raise TreeError(f"gain for node {nodes[0]} has shape {gains.shape[1:]}, expected {shape}")
    norm = spectral_norms(gains.reshape((k,) + shape))
    over = np.flatnonzero(norm > cert.L + GAIN_TOL)
    if over.size:
        return None, (
            f"gain bound violated: node {nodes[over[0]]} has ||K|| = "
            f"{norm[over[0]]:.6g} > L = {cert.L:.6g}"
        )
    if missing.size:
        raise TreeError(f"missing gain for node {nodes[k]}")
    G = np.zeros((tree.node_count,) + shape)
    G[nodes] = gains
    return G, None


def _path_verdict(tree, Phi, L, alpha):
    """Certificate verdict of the path-product check on closed transitions."""
    result = check_stability_tree(tree, Phi, L, alpha)
    msg = "" if result.passed else (
        f"path product at pair {result.worst_pair} exceeds bound by factor "
        f"{result.worst_ratio:.6g}"
    )
    return CertificateCheck(result.passed, msg, result)


def check_stabilizability(tree, cert):
    """Verify a stabilizability certificate by exhaustive path products.

    Gains live on stages 0..T-1; node i's closed transition is
    ``A_i - B_i K_{a(i)}``.  Fails (without raising) when a gain exceeds
    the claimed L or when some path product violates the decay.
    """
    K, msg = _stacked_gains(cert, range(0, tree.horizon), (tree.nu, tree.nx), tree)
    if msg is not None:
        return CertificateCheck(False, msg, None)
    ar = tree.arrays
    return _path_verdict(tree, ar.A - ar.B @ K[tree.parent], cert.L, cert.alpha)


def psd_sqrt(M, name="Q", tol=PSD_TOL):
    """Principal square root of a PSD matrix, or of each matrix in a
    ``(..., n, n)`` stack, with drift clamping.

    Eigenvalues in [-tol, 0) are clamped to zero; anything lower raises
    (the square root is undefined for genuinely indefinite input), with
    the smallest eigenvalue of the first such matrix.
    """
    M = np.asarray(M, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (M + np.swapaxes(M, -1, -2)))
    low = vals.min(axis=-1).ravel()
    if np.any(low < -tol):
        raise TreeError(f"{name} not PSD: smallest eigenvalue {low[low < -tol][0]:.6g}")
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]
    root = root @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (root + np.swapaxes(root, -1, -2))


def check_detectability(tree, cert):
    """Verify a detectability certificate by exhaustive path products.

    Gains live on stages 1..T; node i's closed transition is
    ``A_i - K_i C_{a(i)}`` with C the principal square root of the
    parent's Q.
    """
    K, msg = _stacked_gains(cert, range(1, tree.horizon + 1), (tree.nx,) * 2, tree)
    if msg is not None:
        return CertificateCheck(False, msg, None)
    C = psd_sqrt(tree.arrays.Q)
    return _path_verdict(tree, tree.arrays.A - K @ C[tree.parent], cert.L, cert.alpha)
