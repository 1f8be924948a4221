"""The benchmark's own tests: every workload at a tiny size through both
passes, the manifest against the code, and the tracer's bindings.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def sources():
    run.import_mipcert()
    yield
    run.remove_work()


def test_manifest_matches_the_code():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in MANIFEST["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in MANIFEST["per_layer"]] == list(run.PER_LAYER)
    assert set(run.PREDICTIONS) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_smoke(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=False, size="tiny")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in run.END_TO_END]
    assert all(entry["value"] > 0 for entry in metrics.values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_smoke(name):
    import mipcert.exact
    import mipcert.rules

    result = run.run_workload(name, seed=3, seconds=0, trace=True, size="tiny")
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    assert mipcert.rules.linear_combine is mipcert.exact.linear_combine


def test_wrappers_sit_at_the_call_sites():
    import mipcert.certfile
    import mipcert.certifier
    import mipcert.exact
    import mipcert.model
    import mipcert.rules
    from spans import Tracer

    original = mipcert.exact.linear_combine
    eq = mipcert.model.Linear.__eq__
    tracer = Tracer()
    tracer.install()
    try:
        assert mipcert.rules.linear_combine is not original
        assert mipcert.exact.linear_combine is not original
        assert mipcert.certifier.fmt_step is not mipcert.certfile.fmt_step
        assert mipcert.model.Linear.__eq__ is not eq
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.bindings() == 0
    assert mipcert.rules.linear_combine is original
    assert mipcert.certifier.fmt_step is mipcert.certfile.fmt_step
    assert mipcert.model.Linear.__eq__ is eq


def test_a_failed_prediction_is_a_failure(monkeypatch):
    wrong = dict(run.PREDICTIONS["stream"], **{"trees.propagate_box_calls": True})
    monkeypatch.setitem(run.PREDICTIONS, "stream", wrong)
    result = run.run_workload("stream", seed=3, seconds=0, trace=True, size="tiny")
    assert not result["correct"] and result["failed"] == 1


def test_self_time_excludes_children():
    from spans import Tracer

    tracer = Tracer()
    outer = tracer.timed("outer", lambda: inner())
    inner = tracer.timed("inner", lambda: sum(range(10_000)))
    outer()
    totals = {}
    tracer.fold(totals)
    calls, inclusive, self_time = totals["outer"]
    assert calls == 1 and totals["inner"][0] == 1
    assert self_time == pytest.approx(inclusive - totals["inner"][1])


def test_mutants_are_seeded_and_distinct():
    import random

    import workloads
    from mipcert.certifier import solve_and_certify

    rng = random.Random(11)
    while True:
        _, text, stats = solve_and_certify(workloads.random_problem(rng))
        if stats["steps"] >= 4:
            break
    first = workloads.sampled_mutants(random.Random(5), text, 6)
    again = workloads.sampled_mutants(random.Random(5), text, 6)
    assert first == again
    assert len(set(first)) == len(first) == 6
    assert text not in first


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
