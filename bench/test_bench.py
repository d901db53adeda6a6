"""Tests of the benchmark itself: run with ``python -m pytest bench``.

They drive the same code path as a benchmark run, at a small tree depth
so that a pass takes well under a second.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import worker
import workloads

ROOT = run.ROOT
SMOKE_DEPTH = 3

sys.path.insert(0, os.path.join(ROOT, "src"))
from spc_lab import cli  # noqa: E402


def bench(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker_pass(tmp_path, name, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "worker.py"), "--src",
         os.path.join(ROOT, "src"), "--workload", name, "--seed", "6", "--depth",
         str(SMOKE_DEPTH), "--dir", str(tmp_path / f"{name}-{trace}"), "--trace", str(trace)],
        env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end(name):
    proc = bench("--workload", name, "--seed", "6", "--seconds", "0", "--trace", "0",
                 "--depth", str(SMOKE_DEPTH))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == run.MIN_PASSES * len(workloads.labels(workloads.WORKLOADS[name]))
    metrics = result["metrics"]
    assert list(metrics) == [m for m, _ in run.END_TO_END]
    assert metrics["ok_ratio"]["value"] == 1.0
    for m in ("wall_s", "setup_s", "peak_rss_mb"):
        assert metrics[m]["value"] > 0
    env = json.loads(proc.stdout.strip().splitlines()[-2])["env"]
    assert env["blas_threads"] == 1
    assert env["nodes"] == workloads.node_count(SMOKE_DEPTH)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced(name):
    proc = bench("--workload", name, "--seed", "6", "--seconds", "0", "--trace", "1",
                 "--depth", str(SMOKE_DEPTH))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"], proc.stderr
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(layers) == [m for m, _, _ in tracer.PER_LAYER]
    # layer self times plus the tracer's residual checks plus time outside
    # every span make up the traced pass
    total = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    total += layers["trace.residual_s"] + layers["trace.other_s"]
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["trace.other_s"] >= 0
    norms = [layers[m] for m in ("norms.self_s", "norms.pi_norm_mat_s", "norms.pi_norm_vec_s",
                                 "norms.pi_norm_mat_calls", "norms.dense_mb")]
    if name == "verify":
        assert all(v > 0 for v in norms)
    else:
        assert all(v == 0 for v in norms)
    if name == "receding":
        # regret-sweep derives the constants bundle, which is all the
        # stability layer does here
        assert all(layers[m] == 0 for m in layers if m.startswith("stability.")
                   and not m.startswith("stability.constants") and m != "stability.self_s")
    for label in workloads.labels(workloads.WORKLOADS[name]):
        assert layers[f"cli.{label}_s"] > 0
    assert 0 < layers["kkt.worst_residual"] < 1e-8


def test_tracer_reaches_every_wrapped_function(tmp_path):
    calls = {}
    for name in workloads.WORKLOADS:
        for fn, n in worker_pass(tmp_path, name, 1)["wrapped_calls"].items():
            calls[fn] = calls.get(fn, 0) + n
    wrapped = len(tracer.SPANS) + len(tracer.METHOD_SPANS) + len(tracer.COUNTS) + len(tracer.HANDLERS)
    assert len(calls) == wrapped
    assert sorted(fn for fn, n in calls.items() if n == 0) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_identical_with_tracing_on_and_off(tmp_path, name):
    off, on = worker_pass(tmp_path, name, 0), worker_pass(tmp_path, name, 1)
    assert off["digests"] == on["digests"]
    # certify writes no file
    assert [lb for lb, d in off["digests"].items() if d is None] == (
        ["certify"] if name == "instance" else [])


def test_cli_command_labels_cover_workloads():
    labels = {lb for w in workloads.WORKLOADS.values() for lb in workloads.labels(w)}
    assert labels == set(tracer.CLI_COMMANDS)


def run_instance(tmp_path, corrupt=None):
    """The instance workload in this process; ``corrupt`` edits the
    generated problem document before the commands that read it."""
    workload = workloads.WORKLOADS["instance"]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(workloads.spec_document(SMOKE_DEPTH)))
    results = {}
    for label, argv, outdir in workloads.commands(workload, 6, str(spec), "", str(tmp_path / "out")):
        code, stdout, _ = worker.run_command(cli, argv)
        results[label] = (code, stdout, outdir)
        if label == "generate" and corrupt is not None:
            path = workloads.input_paths(outdir)["problem"]
            with open(path) as fh:
                doc = json.load(fh)
            corrupt(doc)
            with open(path, "w") as fh:
                json.dump(doc, fh)
    return workload, results


def as_pass(problems, results):
    return {"setup_ok": True, "problems": problems, "errors": {},
            "digests": {label: "same" for label in results}}


def test_failing_command_counts_against_ok_ratio(tmp_path):
    def asymmetric_q(doc):
        doc["explicit"]["nodes"][3]["Q"][0][1] += 0.5

    workload, results = run_instance(tmp_path, asymmetric_q)
    assert results["generate"][0] == 0
    reading = [lb for lb in results if lb != "generate"]
    assert all(results[lb][0] == 2 for lb in reading)
    problems, _ = workloads.observe(workload, SMOKE_DEPTH, results)
    assert all(problems[lb] == ["exit code 2"] for lb in reading)
    attempted, failed = run.judge([as_pass(problems, results)], list(results))
    assert (attempted, failed) == (6, 5)


def test_output_check_passes_clean_instance(tmp_path):
    workload, results = run_instance(tmp_path)
    problems, obs = workloads.observe(workload, SMOKE_DEPTH, results)
    assert all(not msgs for msgs in problems.values()), problems
    assert obs["solve-optimal.J"] <= obs["solve-hn.J"]


def test_output_check_fails_broken_receding_outputs(tmp_path):
    workload = workloads.WORKLOADS["receding"]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(workloads.spec_document(SMOKE_DEPTH)))
    inp = str(tmp_path / "inp")
    assert worker.run_command(cli, workloads.setup_argv(6, str(spec), inp))[0] == 0
    results = {}
    for label, argv, outdir in workloads.commands(workload, 6, str(spec), inp, str(tmp_path / "out")):
        code, stdout, _ = worker.run_command(cli, argv)
        results[label] = (code, stdout, outdir)
    problems, obs = workloads.observe(workload, SMOKE_DEPTH, results)
    assert all(not msgs for msgs in problems.values()), problems

    # a negative regret row, and a J_star that differs from spc's
    path = os.path.join(results["regret-sweep"][2], "regret.csv")
    with open(path) as fh:
        lines = fh.readlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))
    cells[3] = "-0.001"
    lines[1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.writelines(lines)
    problems, _ = workloads.observe(workload, SMOKE_DEPTH, results)
    assert len(problems["regret-sweep"]) == 2
    assert not problems["spc"] and not problems["solve-an"]

    # an anticipative value above J_star, and a missing output file
    code, stdout, outdir = results["solve-an"]
    results["solve-an"] = (code, f"policy=an J={obs['spc.J_star'] + 1.0!r}\n", outdir)
    os.remove(os.path.join(results["regret-sweep"][2], "regret.csv"))
    problems, _ = workloads.observe(workload, SMOKE_DEPTH, results)
    assert problems["solve-an"] and problems["regret-sweep"][0].startswith("unreadable output")


def test_reference_comparison_is_relative_1e10():
    problems = {"spc": []}
    ref = {"spc.J_W": -0.0273}
    workloads.compare_reference(problems, ref, {"spc.J_W": -0.0273 * (1 + 5e-11)})
    assert problems["spc"] == []
    workloads.compare_reference(problems, ref, {"spc.J_W": -0.0273 * (1 + 5e-10)})
    workloads.compare_reference(problems, ref, {})
    assert len(problems["spc"]) == 2


def test_reference_covers_every_workload():
    with open(workloads.REFERENCE_PATH) as fh:
        ref = json.load(fh)
    assert set(ref) == set(workloads.WORKLOADS)
    for name, values in ref.items():
        labels = workloads.labels(workloads.WORKLOADS[name])
        assert values and all(key.split(".", 1)[0] in labels for key in values)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "receding", "--seed", "5", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
