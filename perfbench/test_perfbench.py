"""Tests of the benchmark itself, on workloads shrunk to a few sentences."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "pipeline": replace(workloads.SPECS["pipeline"], n_pairs=6, n_sentences=12,
                        heldout_pairs=6, heldout_sentences=8, epochs=2),
    "lexicon": replace(workloads.SPECS["lexicon"], n_pairs=12, n_sentences=24,
                       heldout_pairs=6, heldout_sentences=8),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(record, tracer) of one traced tiny run per workload."""
    out = tmp_path_factory.mktemp("perfbench")
    return {name: run.measure(spec, 3, 0.0, True, out) for name, spec in TINY.items()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_same_inputs(workload, tmp_path):
    spec = TINY[workload]
    a = workloads.setup(spec, 7, tmp_path / "a")
    b = workloads.setup(spec, 7, tmp_path / "b")
    c = workloads.setup(spec, 8, tmp_path / "c")
    assert a.digest() == b.digest()
    assert a.tables == b.tables
    assert a.digest() != c.digest()


def test_benchmark_json_names_the_command_and_workloads():
    assert BENCHMARK["command"][-1] == "perfbench/run.py"
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.SPECS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_reported_with_its_unit(workload, runs):
    record, _ = runs[workload]
    untraced = run.result_line({**record, "trace": 0})["metrics"]
    for m in BENCHMARK["end_to_end"]:
        assert untraced[m["name"]]["unit"] == m["unit"]
        assert isinstance(untraced[m["name"]]["value"], float)
    traced = run.result_line(record)["metrics"]
    for m in BENCHMARK["per_layer"]:
        assert traced[m["name"]]["unit"] == m["unit"], m["name"]
    table = "\n".join(run.table(record))
    named = ["setup_s", "align_sents_per_s", "testtime_sents_per_s", "total_s",
             "peak_rss_mb", "align_f1", "roundtrip_exact", "testtime_entity_acc",
             "failed_ratio", "host_speed", "setup_wall_s", "total_wall_s", "total_cpu_s"]
    if workload == "pipeline":
        named += ["train_pairs_per_s", "train_loss"]
    for name in named:
        assert f"\n{name} " in table
    assert record["failed"] == 0
    assert record["checks"]["outputs_identical_across_passes"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_span_tree_is_well_formed(workload, runs):
    _, tracer = runs[workload]
    by_id = {s.id: s for s in tracer.spans}
    assert tracer.spans and tracer.aggregates
    for s in tracer.spans:
        assert s.start <= s.end
        assert s.self_ns >= 0
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    for (_, parent), (calls, total, own) in tracer.aggregates.items():
        assert calls >= 1 and 0 <= own <= total
        assert parent is None or parent in by_id
    assert not tracer._stack


def test_traced_pipeline_counts_decoder_calls_per_stage(runs):
    record, _ = runs["pipeline"]
    layer = record["per_layer"]
    assert layer["translator.align.calls"] >= layer["translator.align.distinct"] > 0
    assert layer["beam.translate.calls"] == (layer["translator.align.calls"]
                                             + layer["translator.testtime.calls"]
                                             + layer["translator.rewrite.calls"])
    assert layer["io.load_model.calls"] == 2
    assert layer["train.pair_updates"] == layer["train.adadelta_update.calls"] > 0


# this untrained model decodes greedily to "" only, and match_span raises on that
UNTRAINED = replace(TINY["pipeline"], epochs=0, beam=1, model_seed=5)


def test_failed_stage_is_counted_not_raised(tmp_path, capsys):
    spec = UNTRAINED
    inputs = workloads.setup(spec, 3, tmp_path / "in")
    units = workloads.stage_units(inputs)
    result = workloads.run_pass(inputs, tmp_path / "out", tuple(units), tmp_path / "models")
    assert "ConfigError" in capsys.readouterr().err
    assert result.failed_stages == ["align", "rewrite", "testtime"]
    assert result.failed == units["align"] + units["rewrite"] + units["testtime"] > 0
    metrics = run.combine([result], units)
    assert metrics["align_sents_per_s"] == metrics["testtime_sents_per_s"] == 0.0
    assert metrics["failed_ratio"] == result.failed / result.attempted > 0
    assert set(result.digests.values()) == {"missing"}
    for name in {**run.END_TO_END, **run.REPORTED}:
        assert name in ("setup_s", "setup_wall_s") or name in metrics


def test_failed_run_still_prints_every_metric(tmp_path, capfd, monkeypatch):
    monkeypatch.setitem(workloads.SPECS, "pipeline", UNTRAINED)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "pipeline", "--seed", "3", "--seconds", "0",
                     "--trace", "0"]) == 0
    captured = capfd.readouterr()  # the worker's stderr too
    assert "ConfigError" in captured.err
    result = json.loads(captured.out.splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END


def test_compare_refuses_other_backend(runs):
    record, _ = runs["lexicon"]
    other = json.loads(json.dumps(record))
    other["env"]["simdist_backend"] = "c"
    with pytest.raises(compare.Incomparable):
        compare.compare([record], [other])
    lines = compare.compare([record], [record])
    assert lines[-1].endswith("yes")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lexicon",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_stage_time_is_scaled_to_the_probe_reference():
    ref = workloads.PROBE_REFERENCE_NS
    # four pieces at the reference speed, then four at half of it, a probe after each
    probes = [(i, ref if i < 5 else 2 * ref) for i in range(9)]
    line = workloads.Timeline(pieces=[100] * 4 + [200] * 4, probes=probes)
    assert line.wall_s() == pytest.approx(1200e-9)
    # the piece across the change sees one probe of each speed
    assert line.normalized_s() == pytest.approx((400 + 200 / 1.5 + 300) * 1e-9)
    stall = workloads.Timeline(pieces=[100] * 4, probes=[(i, ref) for i in range(5)])
    stall.probes[2] = (2, 50 * ref)
    assert stall.normalized_s() == pytest.approx(400e-9)
    assert line.speed() == pytest.approx(1.0)
    assert stall.speed() == pytest.approx(1.0)
    a = workloads.PassResult(timelines={"align": workloads.Timeline([100], [(0, ref), (1, ref)])})
    b = workloads.PassResult(timelines={"align": workloads.Timeline([300], [(0, ref), (1, ref)])})
    c = workloads.PassResult(timelines={"align": workloads.Timeline([200], [(0, ref), (1, ref)])})
    assert run.stage_seconds([a, b, c], "align") == pytest.approx(200e-9)
