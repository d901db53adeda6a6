"""Outside-in tracer for spc-lab: spans around calls into each layer.

The tracer changes no library file.  It replaces selected public
functions with timing wrappers, rebinding each one in every ``spc_lab``
module that imported it by name (``from .kkt import solve_extensive``
copies the function into the importer, so patching ``kkt`` alone would
miss those calls) and in module-level dispatch tables such as
``cli.HANDLERS``.  ``ScaledKKT`` methods are wrapped on the class.

Spans are kept in memory as ``[name, start, end, parent, label]`` lists
and turned into metrics when the pass ends.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested because every workload runs one command at a time on one thread.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
import weakref

import numpy as np

LAYERS = ("tree", "problem_io", "kkt", "norms", "stability", "controller", "experiments", "cli")

# (module, attribute, span name).  A span name's first component is its
# layer; the rest names the per-layer time metric it feeds.
SPANS = (
    ("tree", "validate_tree", "tree.validate"),
    ("problem_io", "load_problem", "problem_io.load"),
    ("problem_io", "load_certificate", "problem_io.load"),
    ("problem_io", "save_problem", "problem_io.write"),
    ("problem_io", "save_certificate", "problem_io.write"),
    ("problem_io", "write_manifest", "problem_io.write"),
    ("problem_io", "write_trace_csv", "problem_io.write"),
    ("problem_io", "write_path_values_csv", "problem_io.write"),
    ("problem_io", "write_regret_csv", "problem_io.write"),
    ("problem_io", "write_decay_csv", "problem_io.write"),
    ("problem_io", "write_moments_csv", "problem_io.write"),
    ("kkt", "solve_extensive", "kkt.subproblem"),
    ("kkt", "solution_map", "kkt.solution_map"),
    ("kkt", "solution_map_rows", "kkt.solution_map"),
    ("kkt", "check_uniform_regularity", "kkt.regularity"),
    ("norms", "pi_norm_mat", "norms.pi_norm_mat"),
    ("norms", "pi_norm_vec", "norms.pi_norm_vec"),
    ("stability", "check_stability_tree", "stability.path_product"),
    ("stability", "check_stabilizability", "stability.certificate"),
    ("stability", "check_detectability", "stability.certificate"),
    ("stability", "compute_constants", "stability.constants"),
    ("controller", "run_spc", "controller.run_spc"),
    ("controller", "recursion_matrices", "controller.recursion"),
    ("controller", "solve_here_and_now", "controller.here_and_now"),
    ("controller", "solve_anticipative", "controller.anticipative"),
    ("experiments", "generate_certified_instance", "experiments.generate"),
    ("experiments", "regret_sweep", "experiments.regret_sweep"),
    ("experiments", "eisse_check", "experiments.bound_checks"),
    ("experiments", "open_loop_bound_check", "experiments.bound_checks"),
    ("experiments", "closed_loop_bound_check", "experiments.bound_checks"),
    ("experiments", "lemma_suite", "experiments.lemma_suite"),
)

# (class attribute of kkt.ScaledKKT, span name)
METHOD_SPANS = (
    ("__init__", "kkt.assemble"),
    ("factor", "kkt.factor"),
    ("solve", "kkt.solve"),
    ("unscale", "kkt.unscale"),
)

# Functions only counted: they are thin and called often, so a span
# would cost more than it tells.
COUNTS = (
    ("tree", "subtree_nodes", "tree.subtree_nodes_calls"),
    ("controller", "spc_step", "controller.spc_steps"),
    ("controller", "solve_optimal", "controller.full_horizon_solves"),
)

# cli handlers become ``cli.<label>`` spans; ``solve`` is split by policy.
HANDLERS = ("build-tree", "solve", "spc", "regret-sweep", "verify-bounds", "certify",
            "constants", "generate")

RESIDUAL = "trace.residual"

# Call counts whose name is not ``<span>_calls``.
CALL_METRIC = {"kkt.assemble": "kkt.systems", "kkt.subproblem": "kkt.subproblem_samples"}

# Commands whose output reports the full-horizon optimum J_star.
JSTAR_COMMANDS = ("spc", "regret-sweep", "verify-bounds")

CLI_COMMANDS = ("spc", "regret-sweep", "solve-an", "verify-bounds", "generate", "build-tree",
                "certify", "constants", "solve-optimal", "solve-hn")


def _per_layer():
    """Every per-layer metric as ``(name, unit, better)``."""
    out = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    for name in dict.fromkeys([n for _, _, n in SPANS] + [n for _, n in METHOD_SPANS]):
        out.append((f"{name}_s", "s", "lower"))
        out.append((CALL_METRIC.get(name, f"{name}_calls"), "count", "lower"))
    out += [(key, "count", "lower") for _, _, key in COUNTS]
    out += [(f"cli.{label}_s", "s", "lower") for label in CLI_COMMANDS]
    out += [
        ("cli.exit_nonzero", "count", "lower"),
        ("problem_io.read_bytes", "bytes", "lower"),
        ("problem_io.write_bytes", "bytes", "lower"),
        ("kkt.dim_sum", "count", "lower"),
        ("kkt.nnz_sum", "count", "lower"),
        ("kkt.lu_fill", "count", "lower"),
        ("kkt.rhs_cols", "count", "lower"),
        ("kkt.worst_residual", "ratio", "lower"),
        ("kkt.subproblem_p50_ms", "ms", "lower"),
        ("kkt.subproblem_p99_ms", "ms", "lower"),
        ("norms.dense_mb", "MB", "lower"),
        ("experiments.jstar_useful_ratio", "ratio", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.residual_s", "s", "lower"),
        ("trace.other_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()


def command_label(args):
    return f"solve-{args.policy}" if args.command == "solve" else args.command


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.attrs = {}
        self.label = None
        self.fn_calls = {}
        self._undo = []
        self._factored = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.label]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    def count(self, key):
        self.counts[key] = self.counts.get(key, 0) + 1

    def add(self, key, value):
        self.attrs[key] = self.attrs.get(key, 0.0) + value

    def worst(self, key, value):
        self.attrs[key] = max(self.attrs.get(key, 0.0), value)

    def _note(self, fn):
        key = f"{fn.__module__}.{fn.__qualname__}"
        self.fn_calls.setdefault(key, 0)
        return key

    def _timed(self, name, fn, after=None):
        key = self._note(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fn_calls[key] += 1
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, metric, fn):
        key = self._note(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fn_calls[key] += 1
            self.count((metric, self.label))
            return fn(*args, **kwargs)

        return wrapper

    def _handler(self, fn):
        key = self._note(fn)

        @functools.wraps(fn)
        def wrapper(args):
            self.fn_calls[key] += 1
            self.label = command_label(args)
            span = self.begin(f"cli.{self.label}")
            try:
                return fn(args)
            finally:
                self.end(span)
                self.label = None

        return wrapper

    # -- what each wrapper records besides its span --------------------------

    def _after_load(self, args, result):
        self.add("problem_io.read_bytes", os.path.getsize(args[0]))

    def _after_write(self, args, result):
        self.add("problem_io.write_bytes", os.path.getsize(args[0]))

    def _after_assemble(self, args, result):
        system = args[0]
        self.add("kkt.dim_sum", system.dim)
        self.add("kkt.nnz_sum", system.H.nnz)

    def _after_factor(self, args, result):
        system = args[0]
        if system not in self._factored:  # factor() caches its LU
            self._factored.add(system)
            self.add("kkt.lu_fill", result.L.nnz + result.U.nnz)

    def _after_solve(self, args, result):
        system, rhs = args[0], np.asarray(args[1], dtype=float)
        self.add("kkt.rhs_cols", 1 if rhs.ndim == 1 else rhs.shape[1])
        span = self.begin(RESIDUAL)
        resid = np.linalg.norm(system.H @ result - rhs, axis=0)
        scale = 1.0 + np.linalg.norm(rhs, axis=0)
        self.worst("kkt.worst_residual", float(np.max(resid / scale)))
        self.end(span)

    def _after_pi_norm_mat(self, args, result):
        M = args[0]
        if M.blocks:
            nr, nc = M.shape_block
            # computed from the shapes, not measured
            self.add("norms.dense_mb",
                     8.0 * nr * len(M.row_nodes) * nc * len(M.col_nodes) / 1e6)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target in every loaded ``spc_lab`` module."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "spc_lab" or name.startswith("spc_lab.")}
        after = {
            "problem_io.load": self._after_load,
            "problem_io.write": self._after_write,
            "norms.pi_norm_mat": self._after_pi_norm_mat,
        }
        for mod, attr, name in SPANS:
            fn = getattr(mods[f"spc_lab.{mod}"], attr)
            self._rebind(mods, fn, self._timed(name, fn, after.get(name)))
        for mod, attr, key in COUNTS:
            fn = getattr(mods[f"spc_lab.{mod}"], attr)
            self._rebind(mods, fn, self._counted(key, fn))
        cli = mods["spc_lab.cli"]
        for command in HANDLERS:
            fn = cli.HANDLERS[command]
            self._rebind(mods, fn, self._handler(fn))
        cls = mods["spc_lab.kkt"].ScaledKKT
        method_after = {
            "kkt.assemble": self._after_assemble,
            "kkt.factor": self._after_factor,
            "kkt.solve": self._after_solve,
        }
        for attr, name in METHOD_SPANS:
            fn = cls.__dict__[attr]
            setattr(cls, attr, self._timed(name, fn, method_after.get(name)))
            self._undo.append((setattr, cls, attr, fn))

    def _rebind(self, mods, fn, wrapper):
        found = 0
        for mod in mods.values():
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, fn))
                    found += 1
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k, v in list(val.items()):
                        if v is fn:
                            val[k] = wrapper
                            self._undo.append((dict.__setitem__, val, k, fn))
                            found += 1
        if not found:
            raise LookupError(f"{fn.__module__}.{fn.__qualname__} is bound nowhere")

    def uninstall(self):
        for setter, obj, key, fn in reversed(self._undo):
            setter(obj, key, fn)
        self._undo.clear()

    # -- metrics ---------------------------------------------------------------

    def self_times(self):
        """Self time of every span, in recording order."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self, wall_s, exit_nonzero):
        """Per-layer metrics of one traced pass that took ``wall_s``.

        Every ``<layer>.self_s`` is the summed self time of that layer's
        spans, so the layer self times plus ``trace.residual_s`` (the
        tracer's own residual recomputation) plus ``trace.other_s`` (pass
        time outside every span) add up to ``trace.wall_s``.
        """
        own = self.self_times()
        out = {m: 0.0 for m, _, _ in PER_LAYER}
        for span, t in zip(self.spans, own):
            name = span[0]
            layer = name.split(".", 1)[0]
            if name == RESIDUAL:
                out["trace.residual_s"] += t
                continue
            out[f"{layer}.self_s"] += t
            if layer == "cli":
                out[f"{name}_s"] += span[2] - span[1]  # whole command, children included
            else:
                out[f"{name}_s"] += t
        for s in self.spans:
            if not s[0].startswith(("cli.", "trace.")):
                out[CALL_METRIC.get(s[0], f"{s[0]}_calls")] += 1
        for (key, _), n in self.counts.items():
            out[key] += n
        out.update(self.attrs)
        durations = sorted(1e3 * (s[2] - s[1]) for s in self.spans if s[0] == "kkt.subproblem")
        if durations:
            out["kkt.subproblem_p50_ms"] = percentile(durations, 50)
            out["kkt.subproblem_p99_ms"] = percentile(durations, 99)
        jstar_commands = sum(1 for s in self.spans
                             if s[0].startswith("cli.") and s[0][4:] in JSTAR_COMMANDS)
        jstar_solves = sum(n for (key, label), n in self.counts.items()
                           if key == "controller.full_horizon_solves" and label in JSTAR_COMMANDS)
        if jstar_solves:
            out["experiments.jstar_useful_ratio"] = jstar_commands / jstar_solves
        out["cli.exit_nonzero"] = exit_nonzero
        out["trace.wall_s"] = wall_s
        out["trace.other_s"] = wall_s - sum(own)
        out["trace.spans"] = len(self.spans)
        return out


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (q in (0, 100])."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]
