"""Self-tests of the benchmark: ops mirror the CLI, inputs are seeded,
mismatches count as failed ops, op time is restated at the reference
speed, and the metric lists match BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import os
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from schemeforge.cli import main as cli_main  # noqa: E402

NULL = wl.NullTracer()


def cli_file(argv, tmp_path) -> str:
    out = tmp_path / "out.txt"
    assert cli_main(argv + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def test_params_op_matches_cli(tmp_path):
    text, md = wl.params_outputs(7, NULL)
    assert cli_file(["params", "--t", "7"], tmp_path) == text + "\n"
    assert cli_file(["params", "--t", "7", "--format", "md"],
                    tmp_path) == md


def test_triple_op_matches_cli(tmp_path):
    _, text = wl.triple_output(7, (2, 2, 2), NULL)
    assert cli_file(["triple", "--t", "7", "--abc", "2,2,2"],
                    tmp_path) == text + "\n"


def test_pipeline_op_matches_cli(tmp_path, capsys):
    stages, hemi_lines, rec = wl.pipeline_outputs(5, NULL)
    out = tmp_path / "rec.json"
    capsys.readouterr()
    assert cli_main(["pipeline", "--t", "3", "--seed", "5",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == stages
    written = json.loads(out.read_text(encoding="utf-8"))
    assert {k: written[k] for k in rec} == rec
    assert json.loads(cli_file(["hemisystem", "--seed", "5"],
                               tmp_path))["lines"] == hemi_lines


@pytest.fixture(scope="module")
def ready_workloads():
    out = {}
    for name, cls in wl.WORKLOADS.items():
        workload = cls()
        if name == "triple-census":
            workload.setup(NULL)   # the draw domain; no solving
        out[name] = workload
    return out


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_whatever_the_run_length(ready_workloads, name):
    workload = ready_workloads[name]
    short = list(itertools.islice(workload.inputs(11), 10))
    long = list(itertools.islice(workload.inputs(11), 200))
    assert long[:10] == short
    other = list(itertools.islice(workload.inputs(12), 200))
    assert other != long


def test_census_inputs_do_not_depend_on_the_recorded_outputs(
        ready_workloads):
    record = {key: "0" * 24 for key in wl.load_expected("triples")}
    rerecorded = wl.TripleCensus(record)
    rerecorded.setup(NULL)
    draws = list(itertools.islice(rerecorded.inputs(7), 100))
    assert draws == list(itertools.islice(
        ready_workloads["triple-census"].inputs(7), 100))


def test_census_draw_covers_every_symmetry_class(ready_workloads):
    draws = itertools.islice(ready_workloads["triple-census"].inputs(0), 400)
    classes = {len(set(abc)) for _, abc in draws}
    assert classes == {1, 2, 3}


def test_corrupted_record_is_a_failed_op(capsys):
    expected = wl.load_expected("params")
    first = next(wl.ParamsSweep(expected).inputs(5))
    expected[str(first)]["json"] = "0" * 24
    workload = wl.ParamsSweep(expected)
    drawn = list(itertools.islice(workload.inputs(5), 12))
    out = worker.op_loop(workload, wl, seed=5, seconds=0.0, trace=False,
                         setup_counts={})
    assert out["attempted"] == workload.count_ops == 1
    assert out["failed"] == 1
    assert f"input {first!r}" in capsys.readouterr().err

    workload.count_ops = len(drawn)
    out = worker.op_loop(workload, wl, seed=5, seconds=0.0, trace=True,
                         setup_counts={})
    assert out["attempted"] == 2 * len(drawn)
    assert out["failed"] == 2 * drawn.count(first)


class Counting:
    """A stand-in workload: input i fails when i % 5 == 4."""

    name = "counting"
    count_ops = 2
    batch = 3

    def inputs(self, seed):
        return itertools.count(seed)

    def op(self, i, tr):
        tr.call("bench.sleep", lambda: None)
        tr.count("triples.checked", 1)
        if i % 5 == 4:
            raise wl.Mismatch(f"input {i}")


@pytest.mark.parametrize("trace", [False, True])
def test_batched_ops_are_all_checked(trace):
    out = worker.op_loop(Counting(), wl, seed=0, seconds=0.0, trace=trace,
                         setup_counts={})
    runs = 2 if trace else 1
    assert out["attempted"] == runs * 2 * Counting.batch
    assert out["failed"] == runs * 1          # input 4 of inputs 0..5
    assert out["ops"] == 2 * Counting.batch
    if trace:
        assert out["fixed_counts"] == {"triples.checked": 6}
        assert set(out["spans_s"]) == {"bench.sleep", "bench.check"}


def test_op_time_is_restated_at_the_reference_speed(monkeypatch):
    monkeypatch.setattr(worker, "reference_loop",
                        lambda: 2 * worker.REF_LOOP_S)   # a half-speed core
    out = worker.op_loop(Counting(), wl, seed=0, seconds=0.0, trace=False,
                         setup_counts={})
    assert out["op_s"] > 0
    assert out["ref_op_s"] == pytest.approx(out["op_s"] / 2)
    assert out["ref_loop_s"] == 2 * worker.REF_LOOP_S


def test_closed_form_violation_is_reported():
    forced = {(1, 1, 2): 1, (2, 2, 1): 0, (1, 3, 4): 18}
    assert wl.closed_form_violations(3, (2, 1, 1), forced) == []
    forced[(2, 2, 1)] = 2
    assert wl.closed_form_violations(3, (2, 1, 1), forced) == [
        ((2, 2, 1), 2, 0)]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(monkeypatch, capsys, trace):
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "params-sweep", "--seed", "1",
                     "--seconds", "0.3", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(names)


def test_run_refuses_outside_a_checkout(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "params-sweep", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert os.listdir(tmp_path) == []
