"""Tests of the benchmark itself, on the seconds-long `smoke` job set.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import rep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_wrappers_are_installed_at_every_import_site_and_restored():
    # `regforce.valency` is the function, so import the modules by full name
    cli, execution, linear_attack, model, oracle, valency = (
        importlib.import_module("regforce." + name)
        for name in ("cli", "execution", "linear_attack", "model", "oracle", "valency"))

    sites = {
        "step": [(model, "step_with_outcome"), (oracle, "step_with_outcome"),
                 (execution, "step_with_outcome"), (valency, "step_with_outcome")],
        "valency": [(valency, "valency"), (cli, "valency")],
        "cover": [(valency, "covered_injectively"),
                  (linear_attack, "covered_injectively")],
    }
    before = {k: [getattr(m, a) for m, a in v] for k, v in sites.items()}
    from_steps = execution.Execution.__dict__["from_steps"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key, pairs in sites.items():
            now = [getattr(m, a) for m, a in pairs]
            assert all(f is now[0] for f in now), key
            assert now[0] is not before[key][0], key
        assert execution.Execution.__dict__["from_steps"] is not from_steps
    finally:
        tracer.uninstall()
    for key, pairs in sites.items():
        assert [getattr(m, a) for m, a in pairs] == before[key]
    assert execution.Execution.__dict__["from_steps"] is from_steps


@pytest.fixture(scope="module")
def smoke_outcomes(tmp_path_factory):
    work = tmp_path_factory.mktemp("smoke")
    cli, jobs, subst = rep.setup("smoke", workloads.DEFAULT_SEED, work)
    _, outcomes = rep.run_jobs(cli, jobs, subst)
    return jobs, outcomes, subst


def test_gate_passes_the_smoke_jobs_against_their_pins(smoke_outcomes):
    jobs, outcomes, subst = smoke_outcomes
    pins = json.loads((HERE / "pins.json").read_text())["smoke"]
    assert [r["why"] for r in rep.gate(jobs, outcomes, subst, pins)] == [[]] * len(jobs)


def test_a_wrong_expectation_counts_as_failed(smoke_outcomes):
    jobs, outcomes, subst = smoke_outcomes
    wrong = list(jobs)
    wrong[0] = dataclasses.replace(jobs[0], code=3)
    wrong[2] = dataclasses.replace(jobs[2], verdict="violation:agreement")
    results = rep.gate(wrong, outcomes, subst, None)
    assert results[0]["why"] == ["exit code 0, expected 3"]
    assert results[1]["why"] == []
    assert results[2]["why"] == ["verdict 'ok', expected 'violation:agreement'"]


def test_an_unconfirmed_file_fails_its_emitter(smoke_outcomes):
    jobs, outcomes, subst = smoke_outcomes
    wrong = list(jobs)
    wrong[1] = dataclasses.replace(jobs[1], verdict="replay:inconclusive")
    results = rep.gate(wrong, outcomes, subst, None)
    assert results[0]["why"] == ["claim-commit-linear.jsonl not confirmed by replay"]


def test_a_pin_mismatch_counts_as_failed(smoke_outcomes):
    jobs, outcomes, subst = smoke_outcomes
    pins = json.loads((HERE / "pins.json").read_text())["smoke"]
    pins[" ".join(jobs[2].argv)] = {"stdout": "0" * 64}
    results = rep.gate(jobs, outcomes, subst, pins)
    assert results[2]["why"] == ["bytes differ from the pinned SHA-256"]


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit():
    proc = _bench("--seed", "0", "--seconds", "0", "--trace", "0")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    lines = proc.stdout.splitlines()
    for name, unit in [*want.items(), ("failed_ratio", "1")]:
        assert any(line.startswith(name + " ") and line.endswith(" " + unit) for line in lines)


def test_traced_run_prints_every_layer_metric_and_keeps_bytes():
    # seed 5 also exercises renaming and input permutation; traced and
    # untraced repetitions must emit identical bytes or the run fails
    result = _result(_bench("--seed", "5", "--seconds", "0", "--trace", "1"))
    assert result["correct"], result
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert want == tracing.LAYER_METRICS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["model.step_calls"]["value"] > 0
    assert result["metrics"]["oracle.states"]["value"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_renaming_is_a_seeded_bijection_that_still_parses():
    from regforce import model, zoo

    text = zoo.of_race(3)
    assert workloads.rename_states(text, workloads.DEFAULT_SEED, "x") == text
    renamed = workloads.rename_states(text, 11, "x")
    assert renamed == workloads.rename_states(text, 11, "x")
    old, new = model.load_algorithm(text), model.load_algorithm(renamed)
    assert len(new.states) == len(old.states)
    assert not set(new.states) & set(old.states)
    assert sorted(workloads.permute_inputs("0111", 11, "x")) == sorted("0111")
