"""Command-line front end.

A thin shell over the library: every behavior here is reachable through
plain function calls, and the CLI only wires arguments, files, and exit
codes together.

Exit codes: 0 success, 2 input or validation error (or out of memory),
3 solver error, 4 verification failure (the first failing datapoint is
printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .controller import (
    checked_regret,
    run_spc,
    solve_anticipative,
    solve_here_and_now,
    solve_optimal,
)
from .experiments import (
    InstanceSpec,
    closed_loop_bound_check,
    eisse_check,
    generate_certified_instance,
    lemma_suite,
    open_loop_bound_check,
    regret_sweep,
)
from .kkt import SolverError, check_uniform_regularity, measure_decay
from .norms import (
    BlockMatrix, Blocks, BlockVector, expectation_identity_check, pi_norm_mat, pi_norm_vec
)
from .problem_io import (
    SIDECAR,
    _cell,
    _number,
    json_object,
    key_values,
    load_certificate,
    load_problem,
    save_certificate,
    save_problem,
    write_decay_csv,
    write_manifest,
    write_moments_csv,
    write_path_values_csv,
    write_regret_csv,
    write_trace_csv,
)
from .stability import check_detectability, check_stabilizability, compute_constants
from .tree import TreeError, predecessor_pairs

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

SUITES = ("norms", "regularity", "stability", "lemmas", "theorems")

DEFAULT_SPEC = {
    "n_x": 2,
    "n_u": 2,
    "T": 6,
    "branching": 2,
    "L": 1.0,
    "alpha": 0.04,
    "gamma": 1.0,
    "noise_scale": 0.1,
    "seed": 0,
}


def _tolerance(text):
    """A ``--tol-*`` value: a finite number >= 0, else argparse exits 2."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _parse_windows(text, horizon):
    """Window list from '--W': 'a..b' range, comma list, or one value."""
    if text is None:
        return list(range(horizon + 1))
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError("empty range")
            values = list(range(lo, hi + 1))
        elif "," in text:
            values = [int(p) for p in text.split(",")]
        else:
            values = [int(text)]
    except ValueError as exc:
        raise TreeError(f"bad --W value {text!r}: {exc}") from exc
    for W in values:
        if W < 0 or W > horizon:
            raise TreeError(f"window {W} outside [0, {horizon}]")
    return values


def _single_window(text, horizon, default):
    if text is None:
        return default
    values = _parse_windows(text, horizon)
    if len(values) != 1:
        raise TreeError(f"this command takes a single --W value, got {text!r}")
    return values[0]


def _constants_from(tree, initial, assumption):
    if assumption is None:
        raise TreeError(
            "problem file has no 'assumption' block; constants need "
            "claimed L, alpha, gamma"
        )
    return compute_constants(
        assumption["L"],
        assumption["alpha"],
        assumption["gamma"],
        tree=tree,
        w_prev=initial,
    )


def _check_dynamics(tree, x, u, initial, tol):
    """Worst per-node dynamics residual of an exported trace, states ``x``
    (N, nx) and controls ``u`` (N, nu) whose row is the node, over all
    nodes at once; the first worst node is reported, a NaN as worst."""
    xp, up = predecessor_pairs(tree, x, u, initial)
    ar = tree.arrays
    pred = (ar.A @ xp[:, :, None] + ar.B @ up[:, :, None])[:, :, 0] + ar.d
    res = np.max(np.abs(x - pred), axis=1)
    where = int(np.argmax(res))
    if not res[where] <= tol:
        raise SolverError(
            f"dynamics residual {res[where]:.3e} at node {where} exceeds "
            f"--tol-kkt {tol:.3e}"
        )


def cmd_build_tree(args):
    tree, initial, assumption = load_problem(args.input)
    leaves = tree.leaves()
    stage_sizes = [len(tree.stage_nodes(t)) for t in range(tree.horizon + 1)]
    print(key_values({
        "nodes": tree.node_count, "horizon": tree.horizon, "leaves": len(leaves),
        "nx": tree.nx, "nu": tree.nu,
    }))
    if args.out:
        out = _outdir(args)
        write_manifest(
            os.path.join(out, "tree_summary.json"),
            {
                "node_count": tree.node_count,
                "horizon": tree.horizon,
                "nx": tree.nx,
                "nu": tree.nu,
                "leaf_count": len(leaves),
                "stage_sizes": stage_sizes,
                "has_assumption": assumption is not None,
                "tool": "spc-lab",
                "version": __version__,
            },
        )
    return EXIT_OK


def cmd_solve(args):
    tree, initial, _ = load_problem(args.input)
    out = _outdir(args)
    if args.policy == "optimal":
        sol = solve_optimal(tree, initial)
        x, u = sol.x, sol.u
    elif args.policy == "hn":
        sol = solve_here_and_now(tree, initial)
        x, u = sol.x, sol.v[tree.stage]
    else:  # an
        sol = solve_anticipative(tree, initial)
        write_path_values_csv(
            os.path.join(out, "paths.csv"), tree, sol.path_values, {"J": sol.objective}
        )
        print(key_values({"policy": "an", "J": sol.objective}))
        return EXIT_OK
    _check_dynamics(tree, x, u, initial, args.tol_kkt)
    write_trace_csv(os.path.join(out, "trace.csv"), tree, x, u, {"J": sol.objective})
    print(key_values({"policy": args.policy, "J": sol.objective}))
    return EXIT_OK


def cmd_spc(args):
    tree, initial, _ = load_problem(args.input)
    out = _outdir(args)
    W = _single_window(args.W, tree.horizon, default=tree.horizon)
    trace = run_spc(tree, initial, W)
    star = solve_optimal(tree, initial)
    regret = checked_regret(trace.J_W, star.objective)
    _check_dynamics(tree, trace.x, trace.u, initial, args.tol_kkt)
    summary = {"J_W": trace.J_W, "J_star": star.objective, "regret": regret}
    write_trace_csv(os.path.join(out, "trace.csv"), tree, trace.x, trace.u, summary)
    print(key_values({"W": W, **summary}))
    return EXIT_OK


def cmd_regret_sweep(args):
    tree, initial, assumption = load_problem(args.input)
    out = _outdir(args)
    constants = _constants_from(tree, initial, assumption)
    windows = _parse_windows(args.W, tree.horizon)
    report = regret_sweep(tree, constants, initial, windows)
    write_regret_csv(os.path.join(out, "regret.csv"), report)
    write_manifest(
        os.path.join(out, "run.json"),
        {
            "command": "regret-sweep",
            "tool": "spc-lab",
            "version": __version__,
            "input": os.path.basename(args.input),
            "seed": args.seed,
            "windows": windows,
            "constants": dataclasses.asdict(constants),
            "passed": report.passed,
            "slope": report.details["slope"],
        },
    )
    rows = len(report.details["rows"])
    print("wrote regret.csv " + key_values({"rows": rows, "passed": report.passed}))
    return EXIT_OK


def _points_pass(report, tol):
    """Report verdict, optionally re-judged at an overridden tolerance."""
    if tol is None:
        return report.passed, report.failures()
    bad = [p for p in report.points if not p.ok(tol)]
    return not bad, bad


def _fail_line(name, point):
    return (
        f"{name}: index={point.index} measured={_cell(point.measured)} "
        f"bound={_cell(point.bound)}"
    )


def _suite_norms(tree, seed):
    rng = np.random.default_rng(0 if seed is None else seed)
    entries, failures = [], []

    def record(check, ok, **extra):
        entries.append({"check": check, "ok": bool(ok), **extra})
        if not ok:
            failures.append(
                f"norms: {check} failed "
                + ",".join(f"{k}={v!r}" for k, v in extra.items())
            )

    t = tree.horizon
    for k in (0, *tree.children[0][:1]):
        nodes = np.flatnonzero((tree.stage == t) & (tree.ancestors[:, tree.stage[k]] == k))
        v = BlockVector(tree, nodes, rng.standard_normal((nodes.size, tree.nx)))
        lhs, rhs, gap = expectation_identity_check(tree, k, t, v)
        record(
            f"expectation_identity[k={k}]",
            gap <= 1e-10 * (1.0 + lhs),
            gap=gap,
            lhs=lhs,
            rhs=rhs,
        )

    nodes, dim = np.arange(tree.node_count), tree.nx + tree.nu
    v1 = BlockVector(tree, nodes, rng.standard_normal((nodes.size, dim)))
    v2 = BlockVector(tree, nodes, rng.standard_normal((nodes.size, dim)))
    n1, n2 = pi_norm_vec(v1), pi_norm_vec(v2)
    record(
        "homogeneity",
        abs(pi_norm_vec(BlockVector(tree, nodes, 3.5 * v1.V)) - 3.5 * n1) <= 1e-12 * (1.0 + n1),
        norm=n1,
    )
    summed = pi_norm_vec(BlockVector(tree, nodes, v1.V + v2.V))
    record("triangle_inequality", summed <= n1 + n2 + 1e-12, lhs=summed, rhs=n1 + n2)

    # a diagonal block per node, then each node's block to its parent
    child = np.flatnonzero(tree.parent >= 0)
    values = rng.standard_normal((nodes.size + child.size, dim, dim))
    blocks = Blocks(np.r_[nodes, child], np.r_[nodes, tree.parent[child]], values)
    M = BlockMatrix(tree, nodes, nodes, blocks)
    mv, nM = M.apply(v1), pi_norm_mat(M)
    record(
        "operator_norm_consistency",
        pi_norm_vec(mv) <= nM * n1 * (1.0 + 1e-10),
        lhs=pi_norm_vec(mv),
        rhs=nM * n1,
    )
    return not failures, failures, entries


def _suite_regularity(tree, constants):
    rep = check_uniform_regularity(tree, 0, tree.horizon, constants=constants)
    checks = [  # (name, value, relation, bound name, bound, passed)
        ("H_norm", rep.H_norm, "exceeds", "L_H", rep.L_H, rep.H_pass),
        ("FFt_min_eig", rep.FFt_min_eig, "below", "gamma_F", rep.gamma_F, rep.FFt_pass),
        ("ReH_min_eig", rep.ReH_min_eig, "below", "gamma_G", rep.gamma_G, rep.ReH_pass),
    ]
    entries, failures = {}, []
    for name, value, relation, bound_name, bound, passed in checks:
        entries.update({name: value, bound_name: bound})
        if not passed:
            failures.append(
                f"regularity: {name}={_cell(value)} {relation} {bound_name}={_cell(bound)}"
            )
    entries.update(rank_deficient=rep.rank_deficient, ok=rep.all_pass)
    return rep.all_pass, failures, entries


def _run_certificates(tree, cert_paths):
    """Load and check each certificate; returns (passed, failures, entries)."""
    entries, failures = [], []
    for path in cert_paths:
        cert = load_certificate(path)
        if cert.role == "stabilizability":
            check = check_stabilizability(tree, cert)
        elif cert.role == "detectability":
            check = check_detectability(tree, cert)
        else:
            raise TreeError(
                f"certificate role {cert.role!r} not recognized "
                "(expected stabilizability or detectability)"
            )
        entries.append(
            {
                "file": os.path.basename(path),
                "role": cert.role,
                "passed": check.passed,
                "message": check.message,
            }
        )
        if not check.passed:
            failures.append(f"stability: {check.message}")
    return not failures, failures, entries


def _suite_stability(tree, cert_paths):
    if not cert_paths:
        return True, [], {"skipped": "no --cert supplied"}
    return _run_certificates(tree, cert_paths)


def _suite_lemmas(tree, constants, W, initial, tol):
    reports = lemma_suite(tree, constants, W, w_prev=initial)
    entries, failures = [], []
    for rep in reports:
        ok, bad = _points_pass(rep, tol)
        entries.append(
            {"name": rep.name, "points": len(rep.points), "passed": ok}
        )
        for p in bad:
            failures.append(_fail_line(rep.name, p))
    return not failures, failures, entries


def _suite_theorems(tree, constants, W, initial, tol, out):
    reports = {
        "optimal_policy": eisse_check(tree, constants, initial),
        "subtree_resolve": open_loop_bound_check(
            tree, constants, (0,), W, initial
        ),
        "receding_horizon": closed_loop_bound_check(tree, constants, initial, W),
    }
    sweep = regret_sweep(tree, constants, initial, list(range(tree.horizon + 1)))
    write_moments_csv(os.path.join(out, "moments.csv"), reports)
    write_regret_csv(os.path.join(out, "regret.csv"), sweep)

    rows = measure_decay(tree, 0, tree.horizon)
    write_decay_csv(os.path.join(out, "decay.csv"), rows, constants)

    entries, failures = [], []
    for kind, rep in {**reports, "dynamic_regret_decay": sweep}.items():
        ok, bad = _points_pass(rep, tol)
        entries.append(
            {"name": rep.name, "kind": kind, "points": len(rep.points), "passed": ok}
        )
        for p in bad:
            failures.append(_fail_line(rep.name, p))

    decay_tol = 1e-9 if tol is None else tol
    decay_ok = True
    for row in rows:
        bound = constants.map_decay(abs(row.t - row.tprime))
        if row.psi_norm > bound * (1.0 + decay_tol) or row.omega_norm > bound * (
            1.0 + decay_tol
        ):
            decay_ok = False
            failures.append(
                f"solution_map_decay: (t={row.t}, t'={row.tprime}) "
                f"psi={_cell(row.psi_norm)} omega={_cell(row.omega_norm)} "
                f"bound={_cell(bound)}"
            )
            break
    entries.append({"name": "solution_map_decay", "points": len(rows), "passed": decay_ok})
    return not failures, failures, entries


def _cmd_verify(args, suites):
    tree, initial, assumption = load_problem(args.input)
    out = _outdir(args)
    constants = None
    if assumption is not None:
        constants = _constants_from(tree, initial, assumption)
    elif any(s in suites for s in ("lemmas", "theorems")):
        raise TreeError(
            "suites 'lemmas' and 'theorems' need an 'assumption' block "
            "with claimed L, alpha, gamma in the problem file"
        )
    W = _single_window(args.W, tree.horizon, default=min(2, tree.horizon))
    cert_paths = getattr(args, "cert", None) or []

    summary, failures = {}, []
    for suite in suites:
        if suite == "norms":
            ok, fails, entries = _suite_norms(tree, args.seed)
        elif suite == "regularity":
            ok, fails, entries = _suite_regularity(tree, constants)
        elif suite == "stability":
            ok, fails, entries = _suite_stability(tree, cert_paths)
        elif suite == "lemmas":
            ok, fails, entries = _suite_lemmas(
                tree, constants, W, initial, args.tol_bound
            )
        else:
            ok, fails, entries = _suite_theorems(
                tree, constants, W, initial, args.tol_bound, out
            )
        summary[suite] = {"passed": ok, "detail": entries}
        failures.extend(fails)

    write_manifest(
        os.path.join(out, "verify_report.json"),
        {
            "command": "verify",
            "tool": "spc-lab",
            "version": __version__,
            "input": os.path.basename(args.input),
            "suites": list(suites),
            "W": W,
            "passed": not failures,
            "summary": summary,
        },
    )
    if failures:
        print(failures[0])
        return EXIT_VERIFY
    print("all checks passed: " + ",".join(suites))
    return EXIT_OK


def cmd_verify_bounds(args):
    if args.suite == "all":
        return _cmd_verify(args, SUITES)
    return _cmd_verify(args, (args.suite,))


def cmd_certify(args):
    tree, _, _ = load_problem(args.input)
    passed, failures, entries = _run_certificates(tree, args.cert)
    for entry in entries:
        status = "pass" if entry["passed"] else "fail"
        suffix = f": {entry['message']}" if entry["message"] else ""
        print(f"{entry['role']} [{entry['file']}]: {status}{suffix}")
    if not passed:
        print(failures[0])
        return EXIT_VERIFY
    return EXIT_OK


def cmd_constants(args):
    tree, initial, assumption = load_problem(args.input)
    out = _outdir(args)
    constants = _constants_from(tree, initial, assumption)
    write_manifest(os.path.join(out, "constants.json"), dataclasses.asdict(constants))
    names = ("L_H", "gamma_F", "gamma_G", "rho", "one_minus_rho", "W_bar")
    print(key_values({k: getattr(constants, k) for k in names}))
    return EXIT_OK


def _load_spec(args):
    fields = dict(DEFAULT_SPEC)
    if args.input:
        with open(args.input) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise TreeError(f"spec file is not valid JSON: {exc}") from exc
        json_object(doc, "spec file")
        unknown = set(doc) - set(DEFAULT_SPEC)
        if unknown:
            raise TreeError(f"spec file has unknown fields {sorted(unknown)}")
        fields.update(doc)
    if args.seed is not None:
        fields["seed"] = args.seed
    for key, value in fields.items():
        kind = type(DEFAULT_SPEC[key])  # int, or a finite float
        fields[key] = _number(value, f"spec {key}", finite=kind is float, kind=kind)
    return InstanceSpec(**fields)


def cmd_generate(args):
    spec = _load_spec(args)
    out = _outdir(args)
    inst = generate_certified_instance(spec)
    c = inst.constants
    save_problem(
        os.path.join(out, "problem.json"),
        inst.tree,
        inst.w_prev,
        assumption={"L": c.L, "alpha": c.alpha, "gamma": c.gamma},
    )
    for role, cert in sorted(inst.certificates.items()):
        save_certificate(os.path.join(out, f"{role}.json"), cert)
    write_manifest(os.path.join(out, "constants.json"), dataclasses.asdict(c))
    write_manifest(
        os.path.join(out, "run.json"),
        {
            "command": "generate",
            "tool": "spc-lab",
            "version": __version__,
            "spec": {k: getattr(spec, k) for k in DEFAULT_SPEC},
        },
    )
    names = ["problem.json", "problem.json" + SIDECAR] + [
        f"{role}.json" for role in sorted(inst.certificates)
    ] + ["constants.json", "run.json"]
    print("wrote " + " ".join(names))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spc-lab",
        description=(
            "Scenario-tree stochastic predictive control: solvers, "
            "receding-horizon simulation, and bound verification."
        ),
        epilog=(
            "exit codes: 0 success; 2 input or validation error; "
            "3 solver error or nonconvex problem; 4 verification failure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, seed=None):
        """--input and --out, and --seed with help ``seed`` when given."""
        if needs_input:
            p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--out", default=None, help="output directory (default .)")
        if seed:
            p.add_argument("--seed", type=int, default=None, help=seed)

    p = sub.add_parser("build-tree", help="validate a problem file, print a summary")
    common(p)

    p = sub.add_parser("solve", help="one-shot policies; writes trace.csv")
    common(p)
    p.add_argument(
        "--policy",
        choices=("optimal", "hn", "an"),
        default="optimal",
        help="optimal tree policy, here-and-now, or anticipative",
    )
    p.add_argument(
        "--tol-kkt",
        type=_tolerance,
        default=1e-8,
        help="max dynamics residual accepted in the exported trace",
    )

    p = sub.add_parser("spc", help="receding-horizon run; writes trace.csv")
    common(p)
    p.add_argument("--W", default=None, help="lookahead window (default: horizon)")
    p.add_argument("--tol-kkt", type=_tolerance, default=1e-8, help="max dynamics residual")

    p = sub.add_parser(
        "regret-sweep", help="regret over windows; writes regret.csv + run.json"
    )
    common(p, seed="seed recorded in run.json")
    p.add_argument("--W", default=None, help="windows: 'a..b', 'a,b,c', or one value")

    p = sub.add_parser(
        "verify-bounds",
        help="run verification suites; writes verify_report.json (+ csv files)",
    )
    common(p, seed="seed of the norms suite's random vectors (default 0)")
    p.add_argument(
        "--suite",
        choices=SUITES + ("all",),
        default="all",
        help="which checks to run",
    )
    p.add_argument("--W", default=None, help="window for lemma/theorem checks")
    p.add_argument(
        "--cert",
        action="append",
        default=None,
        help="certificate file for the stability suite (repeatable)",
    )
    p.add_argument(
        "--tol-bound",
        type=_tolerance,
        default=None,
        help="override the relative slack used to judge bound points",
    )

    p = sub.add_parser("certify", help="check gain certificates against a problem")
    p.add_argument("--input", required=True, help="problem file (JSON)")
    p.add_argument(
        "--cert",
        action="append",
        required=True,
        help="certificate file (repeatable)",
    )

    p = sub.add_parser("constants", help="derive the constants bundle; writes constants.json")
    common(p)

    p = sub.add_parser(
        "generate",
        help="generate a certified instance; writes problem, its array sidecar and certificates",
    )
    common(p, needs_input=False, seed="seed override (replaces the spec's seed)")
    p.add_argument(
        "--input",
        default=None,
        help="instance spec JSON (fields n_x, n_u, T, branching, L, alpha, "
        "gamma, noise_scale, seed); defaults used when omitted",
    )

    return parser


HANDLERS = {
    "build-tree": cmd_build_tree,
    "solve": cmd_solve,
    "spc": cmd_spc,
    "regret-sweep": cmd_regret_sweep,
    "verify-bounds": cmd_verify_bounds,
    "certify": cmd_certify,
    "constants": cmd_constants,
    "generate": cmd_generate,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except TreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError but is a solver failure
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
