"""Workloads of the spc-lab benchmark and the checks on their outputs.

A workload is a fixed sequence of ``spc-lab`` commands run in-process
through ``spc_lab.cli.main``, one at a time, on the files that
``spc-lab generate`` makes from the workload seed.  This module knows
the command lines, where each command writes, and what a correct output
looks like; it imports nothing from ``spc_lab``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

DEFAULT_SEED = 5
REFERENCE_SEED = DEFAULT_SEED  # the seed reference.json was recorded at
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# seed-independent invariants
REGRET_FLOOR = -1e-8  # regret >= -1e-8 on every sweep row
EXACT_TOL = 1e-8  # regret at W = T, and slack on J orderings, relative to 1 + |J|
JSTAR_RTOL = 1e-12  # spc's J_star against every J_star of regret.csv
REFERENCE_RTOL = 1e-10  # stored seed-5 values


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``T`` is the tree depth of the generated instance (2**(T+1) - 1
    nodes with branching 2).  ``setup_generate`` says whether the
    instance is generated during set-up (the workload then reads it) or
    inside the timed pass (the ``instance`` workload times ``generate``).
    """

    name: str
    T: int
    setup_generate: bool
    why: str


WORKLOADS = {
    "receding": Workload(
        "receding",
        8,
        True,
        "SPC policy at T=8: thousands of small subtree KKT assemble/factor/solve "
        "calls under controller and experiments",
    ),
    "verify": Workload(
        "verify",
        7,
        True,
        "verify-bounds --suite all at T=7: the only user of dense weighted norms, "
        "solution maps and the regularity SVD; peak RSS is large",
    ),
    "instance": Workload(
        "instance",
        10,
        False,
        "generate, certify and solve at T=10: file I/O, tree validation, "
        "certificate path products and two large KKT systems",
    ),
}

def node_count(T):
    return 2 ** (T + 1) - 1


def spec_document(T):
    """Instance spec for ``spc-lab generate``: the CLI defaults at depth T.

    The seed is passed on the command line, so the spec file does not
    carry one.
    """
    return {"T": int(T)}


def input_paths(inp):
    """Files that ``generate`` writes into directory ``inp``."""
    return {
        "problem": os.path.join(inp, "problem.json"),
        "stab": os.path.join(inp, "stabilizability.json"),
        "det": os.path.join(inp, "detectability.json"),
    }


def setup_argv(seed, spec_path, inp):
    """Set-up command that makes the workload's input files."""
    return ["generate", "--input", spec_path, "--seed", str(seed), "--out", inp]


def commands(workload, seed, spec_path, inp, out):
    """The workload's command sequence as ``(label, argv, outdir)`` triples.

    Every command writes into its own directory under ``out`` so that no
    command overwrites another's files.
    """
    def od(label):
        return os.path.join(out, label)

    if workload.name == "instance":
        files = input_paths(od("generate"))
        p = files["problem"]
        return [
            ("generate", ["generate", "--input", spec_path, "--seed", str(seed),
                          "--out", od("generate")], od("generate")),
            ("build-tree", ["build-tree", "--input", p, "--out", od("build-tree")],
             od("build-tree")),
            ("certify", ["certify", "--input", p, "--cert", files["stab"],
                         "--cert", files["det"]], od("certify")),
            ("constants", ["constants", "--input", p, "--out", od("constants")],
             od("constants")),
            ("solve-optimal", ["solve", "--policy", "optimal", "--input", p,
                               "--out", od("solve-optimal")], od("solve-optimal")),
            ("solve-hn", ["solve", "--policy", "hn", "--input", p,
                          "--out", od("solve-hn")], od("solve-hn")),
        ]
    files = input_paths(inp)
    p = files["problem"]
    if workload.name == "receding":
        return [
            ("spc", ["spc", "--input", p, "--W", "2", "--out", od("spc")], od("spc")),
            ("regret-sweep", ["regret-sweep", "--input", p, "--out", od("regret-sweep")],
             od("regret-sweep")),
            ("solve-an", ["solve", "--policy", "an", "--input", p,
                          "--out", od("solve-an")], od("solve-an")),
        ]
    if workload.name == "verify":
        return [
            ("verify-bounds", ["verify-bounds", "--input", p, "--suite", "all",
                               "--cert", files["stab"], "--cert", files["det"],
                               "--out", od("verify-bounds")], od("verify-bounds")),
        ]
    raise KeyError(workload.name)


def labels(workload):
    """Labels of the workload's commands, in order."""
    return [label for label, _, _ in commands(workload, 0, "", "", "")]


# ---------------------------------------------------------------------------
# reading outputs


def parse_kv(line):
    """``a=1 b=2`` printed by the CLI, values as floats where they parse."""
    out = {}
    for tok in line.split():
        if "=" in tok:
            key, val = tok.split("=", 1)
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


def read_regret_csv(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(line for line in fh if not line.startswith("#"))]
    return [
        {"W": int(r["W"]), "J_W": float(r["J_W"]), "J_star": float(r["J_star"]),
         "regret": float(r["regret"])}
        for r in rows
    ]


def read_decay_csv(path):
    with open(path, newline="") as fh:
        return [
            {"t": int(r["t"]), "tprime": int(r["tprime"]),
             "psi_norm": float(r["psi_norm"]), "omega_norm": float(r["omega_norm"])}
            for r in csv.DictReader(fh)
        ]


def _last_line(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# checks


class _Problems:
    """Problems found in a pass's outputs, keyed by the command they indict."""

    def __init__(self, labels):
        self.by_label = {label: [] for label in labels}

    def add(self, label, message):
        self.by_label[label].append(message)

    def require(self, label, ok, message):
        if not ok:
            self.add(label, message)
        return ok

    @contextmanager
    def reading(self, label):
        """Outputs of ``label`` that are missing or malformed indict it."""
        try:
            yield
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            self.add(label, f"unreadable output: {type(exc).__name__}: {exc}")


def _le(a, b):
    """a <= b up to the solver-accuracy slack."""
    return a <= b + EXACT_TOL * (1.0 + abs(b))


def _check_regret_rows(problems, label, rows, T):
    if not problems.require(label, len(rows) == T + 1, f"regret.csv has {len(rows)} rows, want {T + 1}"):
        return
    for row in rows:
        problems.require(label, row["regret"] >= REGRET_FLOOR,
                         f"regret.csv W={row['W']}: regret {row['regret']!r} < {REGRET_FLOOR:g}")
    last = rows[-1]
    problems.require(label, last["W"] == T and last["regret"] <= EXACT_TOL,
                     f"regret.csv W={last['W']}: regret {last['regret']!r} > {EXACT_TOL:g} at W=T")


def observe(workload, T, results):
    """Check one pass's outputs and collect its reference observables.

    ``T`` is the depth of the pass's tree.  ``results`` maps each command label to ``(exit_code, stdout, outdir)``.
    Returns ``(problems, observables)``: problems per label (an empty
    list when the command is correct) and the numbers compared against
    the stored seed-5 reference.  A command that exited non-zero is
    reported as such and its outputs are not read.
    """
    problems = _Problems(results)
    ok = {label: problems.require(label, code == 0, f"exit code {code}")
          for label, (code, _, _) in results.items()}
    obs = {}
    observer = {"receding": _observe_receding, "verify": _observe_verify,
                "instance": _observe_instance}[workload.name]
    observer(problems, obs, ok, results, T)
    return problems.by_label, obs


def _observe_receding(problems, obs, ok, results, T):
    jstar = None
    if ok["spc"]:
        with problems.reading("spc"):
            kv = parse_kv(_last_line(results["spc"][1]))
            obs.update({"spc.J_W": kv["J_W"], "spc.J_star": kv["J_star"]})
            problems.require("spc", _le(kv["J_star"], kv["J_W"]),
                             f"J_star {kv['J_star']!r} exceeds J_W {kv['J_W']!r}")
            jstar = kv["J_star"]
    if ok["regret-sweep"]:
        with problems.reading("regret-sweep"):
            rows = read_regret_csv(os.path.join(results["regret-sweep"][2], "regret.csv"))
            _check_regret_rows(problems, "regret-sweep", rows, T)
            for row in rows:
                obs[f"regret-sweep.J_W[{row['W']}]"] = row["J_W"]
                if jstar is not None:
                    problems.require(
                        "regret-sweep",
                        abs(row["J_star"] - jstar) <= JSTAR_RTOL * abs(jstar),
                        f"regret.csv W={row['W']}: J_star {row['J_star']!r} "
                        f"differs from spc's {jstar!r}",
                    )
    if ok["solve-an"]:
        with problems.reading("solve-an"):
            J_an = parse_kv(_last_line(results["solve-an"][1]))["J"]
            obs["solve-an.J"] = J_an
            if jstar is not None:
                problems.require("solve-an", _le(J_an, jstar),
                                 f"anticipative J {J_an!r} exceeds J_star {jstar!r}")


def _observe_verify(problems, obs, ok, results, T):
    label = "verify-bounds"
    if not ok[label]:
        return
    out = results[label][2]
    with problems.reading(label):
        with open(os.path.join(out, "verify_report.json")) as fh:
            report = json.load(fh)
        problems.require(label, report["passed"] is True, "verify_report.json: passed is not true")
        for suite, entry in report["summary"].items():
            problems.require(label, entry["passed"] is True,
                             f"verify_report.json: suite {suite} failed")
        passing = sorted(e["role"] for e in report["summary"]["stability"]["detail"]
                         if e["passed"])
        problems.require(label, passing == ["detectability", "stabilizability"],
                         "verify_report.json: both certificates must pass")
        reg = report["summary"]["regularity"]["detail"]
        for key in ("H_norm", "FFt_min_eig", "ReH_min_eig"):
            obs[f"{label}.{key}"] = reg[key]
        rows = read_regret_csv(os.path.join(out, "regret.csv"))
        _check_regret_rows(problems, label, rows, T)
        for row in rows:
            obs[f"{label}.J_W[{row['W']}]"] = row["J_W"]
        for row in read_decay_csv(os.path.join(out, "decay.csv")):
            if row["t"] == row["tprime"]:
                obs[f"{label}.psi[{row['t']}]"] = row["psi_norm"]
                obs[f"{label}.omega[{row['t']}]"] = row["omega_norm"]


def _observe_instance(problems, obs, ok, results, T):
    if ok["build-tree"]:
        with problems.reading("build-tree"):
            kv = parse_kv(_last_line(results["build-tree"][1]))
            problems.require("build-tree", kv["nodes"] == node_count(T) and kv["horizon"] == T,
                             f"build-tree reports nodes={kv['nodes']} horizon={kv['horizon']}")
    if ok["certify"]:
        lines = [ln for ln in results["certify"][1].splitlines() if ln.strip()]
        passing = sorted(ln.split()[0] for ln in lines if ln.split()[-1] == "pass")
        problems.require("certify", passing == ["detectability", "stabilizability"],
                         f"certify does not pass both certificates: {lines!r}")
    if ok["constants"]:
        with problems.reading("constants"):
            for key, val in parse_kv(_last_line(results["constants"][1])).items():
                obs[f"constants.{key}"] = val
    J = {}
    for label in ("solve-optimal", "solve-hn"):
        if ok[label]:
            with problems.reading(label):
                J[label] = parse_kv(_last_line(results[label][1]))["J"]
                obs[f"{label}.J"] = J[label]
    if len(J) == 2:
        problems.require("solve-hn", _le(J["solve-optimal"], J["solve-hn"]),
                         f"optimal J {J['solve-optimal']!r} exceeds here-and-now J {J['solve-hn']!r}")


def load_reference(workload):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[workload.name]


def compare_reference(problems, reference, obs):
    """Stored seed-5 values against this pass, each to 1e-10 relative.

    Every observable key starts with the label of the command that
    produced it, and a mismatch or a missing value indicts that command.
    """
    for key, want in reference.items():
        label = key.split(".", 1)[0]
        got = obs.get(key)
        if got is None:
            problems[label].append(f"reference value {key} missing")
        elif not (math.isfinite(got) and abs(got - want) <= REFERENCE_RTOL * abs(want)):
            problems[label].append(f"{key} = {got!r}, reference {want!r}")
