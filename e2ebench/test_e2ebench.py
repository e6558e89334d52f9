"""Self-tests of the benchmark.

    python3 -m pytest e2ebench/test_e2ebench.py

They run real workers on ``oracle_grid``, the shortest workload, so the
whole file takes about half a minute.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import worker  # noqa: F401  (puts the checkout's src first on sys.path)


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def test_uninstall_restores_every_original():
    originals = [getattr(tracing._owner(spec), attr) for spec, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracing.wrapped_names()) == len(tracing.TARGETS)
    finally:
        tracer.uninstall()
    assert tracing.wrapped_names() == []
    for (spec, attr, _, _), original in zip(tracing.TARGETS, originals):
        assert getattr(tracing._owner(spec), attr) is original


def test_untraced_worker_runs_unwrapped_and_correct(tmp_path):
    result = run.spawn("oracle_grid", 0, False, tmp_path, None)
    assert result["wrapped"] == []
    assert "layers" not in result
    assert (result["attempted"], result["failed"]) == (3, 0)


def test_traced_counts_repeat_and_self_times_sum_to_wall(tmp_path):
    results = []
    for i in range(2):
        work = tmp_path / str(i)
        work.mkdir()
        spans = tmp_path / f"spans{i}.json"
        results.append(run.spawn("oracle_grid", 3, True, work, spans))
    first, second = (r["layers"] for r in results)
    assert _counts(first) == _counts(second)
    assert first["backend.mex_value_counts.partitions_walked"] > 0
    assert set(first) | {"trace.wall_s", "trace.overhead_s"} == set(run.layer_units())
    for result in results:
        layers = result["layers"]
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert self_total + layers["unattributed_s"] == pytest.approx(result["wall_s"], abs=1e-9)
        assert 0 <= layers["unattributed_s"] < 0.01 * result["wall_s"]
        assert result["failed"] == 0 and result["wrapped"] == []
    spans = json.loads((tmp_path / "spans0.json").read_text())
    assert {"name", "start", "end", "parent", "request"} == set(spans[0])
    assert {s["request"] for s in spans} == {0, 1, 2}


def test_wrong_output_is_counted_as_failed(tmp_path):
    # Corrupt the value at n=14 of the big-M oracle request as it is written.
    script = f"""
import sys
sys.path.insert(0, {str(run.HERE)!r})
import worker
from mexmoments import cli
emit = cli._emit
def corrupt(text, args):
    if args.out.endswith("varsigma_bigm.csv"):
        text = text.replace("\\n14,", "\\n14,1")
    emit(text, args)
cli._emit = corrupt
sys.exit(worker.main())
"""
    result_path = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, "-c", script, "--workload", "oracle_grid", "--seed", "0",
         "--spawned-at", "0", "--work", str(tmp_path), "--result", str(result_path)],
        check=True, timeout=run.WORKER_TIMEOUT_S,
    )
    result = json.loads(result_path.read_text())
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert list(result["problems"]) == ["2"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "stats_session", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "no mexmoments sources" in proc.stderr
    assert "correct" not in proc.stdout


def test_compare_refuses_different_backends(tmp_path, capsys):
    def result(backend, wall):
        prov = {"backend": backend, "workload": "stats_session", "commit": "x"}
        metrics = dict.fromkeys(run.END_TO_END, wall)
        return json.dumps({"provenance": prov, "metrics": metrics})

    (tmp_path / "a.json").write_text(result("pure", 1.0))
    (tmp_path / "b.json").write_text(result("fast", 0.5))
    (tmp_path / "c.json").write_text(result("pure", 0.5))
    assert run.compare(tmp_path / "a.json", tmp_path / "b.json") == 2
    assert run.compare(tmp_path / "a.json", tmp_path / "c.json") == 0
    assert "-50.0%" in capsys.readouterr().out


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [run.HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
