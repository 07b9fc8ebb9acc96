"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import run
import tracer
import yardstick
from workloads import DEFAULT_SEED, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return float(next(self.ticks))


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    rec = tracer.Recorder(FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with rec.operation("bench.op", "op#1"):
        a = rec.open("pipeline.a")
        rec.close(rec.open("maskio.a1"))
        rec.close(a)
        rec.close(rec.open("metrics.b"))
    got = {s.name: v for s, v in zip(rec.spans, tracer.self_times(rec.spans).values())}
    assert got == {"bench.op": 3.0, "pipeline.a": 2.0, "maskio.a1": 1.0, "metrics.b": 4.0}
    assert sum(got.values()) == rec.spans[0].duration
    assert [s.request for s in rec.spans] == ["op#1"] * 4
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        tracer.Span(0, "cli.main", None, "r", 0.0, 10.0),
        tracer.Span(1, "cohort.x", 0, "r", 2.0, 6.0),
        tracer.Span(2, "cohort.y", 0, "r", 4.0, 8.0),  # overlaps x by 2
        tracer.Span(3, "cohort.z", 0, "r", 9.0, 12.0),  # runs past its parent
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_opaque_operation_records_only_its_own_span():
    rec = tracer.Recorder(FakeClock(range(10)))
    with rec.operation("pool.evaluate-j2", "evaluate-j2#1", opaque=True):
        assert rec.paused
        assert rec.open("pipeline.hidden") is None
    assert [s.name for s in rec.spans] == ["pool.evaluate-j2"]
    assert not rec.paused


@pytest.mark.parametrize(
    "n, expected", [(9, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (10000, 99.9)]
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.highest_percentile(n) == expected
    if expected is not None:
        assert n - harness.rank_of(n, expected) >= 10


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert harness.percentile(values, 50) == 50.0
    assert harness.percentile(values, 90) == 90.0
    assert harness.percentile([7.0], 90) == 7.0


def test_normalise_scales_by_the_root_of_the_nearby_chunks():
    nominal = yardstick.NOMINAL_S
    assert yardstick.ELASTICITY == 0.5 and yardstick.NEIGHBOURS == 4
    # the op ran between chunks[4] and chunks[5]; its neighbours are chunks[1:9],
    # whose median is 4 x nominal, so the op ran at half the nominal speed
    chunks = [99.0] + [4 * nominal] * 8 + [99.0]
    assert yardstick.normalise(1.0, chunks, 5) == pytest.approx(0.5)
    # the first op sees only the chunks there are
    assert yardstick.normalise(2.0, [nominal, 9 * nominal], 1) == pytest.approx(2.0 / 5**0.5)


def test_yardstick_chunk_is_deterministic_and_leaves_its_inputs_alone():
    before = (yardstick._RASTER, yardstick._MASK.copy(), json.dumps(yardstick._REPORT))
    assert yardstick.chunk() == yardstick.chunk()
    assert before[0] is yardstick._RASTER
    assert (before[1] == yardstick._MASK).all()
    assert before[2] == json.dumps(yardstick._REPORT)


@pytest.fixture
def carcino_cli(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    return harness.import_carcino(run.SRC)


def _attribute_ids():
    return {
        (module.__name__, attr): id(value)
        for module in tracer.carcino_modules()
        for attr, value in vars(module).items()
    }


def test_install_rebinds_from_imports_and_uninstall_restores(carcino_cli):
    synth = sys.modules["carcino.synth"]
    cohort = sys.modules["carcino.cohort"]
    before = _attribute_ids()
    original = cohort.evaluate_cohort
    rec = tracer.Recorder()
    patched = tracer.install(rec)
    try:
        # synth calls evaluate_cohort through its own from-import binding
        assert synth.evaluate_cohort is cohort.evaluate_cohort is not original
        assert "carcino.synth.evaluate_cohort" in tracer.wrapped_attributes()
        with rec.operation("bench.probe", "probe#1"):
            sys.modules["carcino.metrics"].macro_average([1.0, None, 3.0])
        assert [s.name for s in rec.spans] == ["bench.probe", "metrics.macro_average"]
    finally:
        tracer.uninstall(patched)
    assert tracer.wrapped_attributes() == []
    assert _attribute_ids() == before


def tiny(workload, **changes):
    spec = {**workload.spec, "n_videos": 4, "frame_size": [32, 32], "frames_per_video": 2}
    sweep = replace(workload.sweep, levels=workload.sweep.levels[:2], replicates=1, reshape=None)
    fields = dict(spec=spec, sweep=sweep, report_sha256=None, sweep_sha256=None)
    return replace(workload, **{**fields, **changes})


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    return json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_of_tiny_workload(name, trace, capsys, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "")
    work_root = run.ROOT / ".perfbench-work"
    before = set(work_root.glob("*"))
    code = run.run(tiny(WORKLOADS[name]), seed=3, seconds=0.1, trace=trace)
    result = _result(capsys)
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > (1 if trace else 100)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert tracer.wrapped_attributes() == []
    assert set(work_root.glob("*")) <= before  # the run deleted its own inputs


def test_wrong_stored_digest_fails_the_run(capsys, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "")
    workload = tiny(WORKLOADS["dense-96"], report_sha256="0" * 64)
    code = run.run(workload, seed=DEFAULT_SEED, seconds=0.1, trace=False)
    result = _result(capsys)
    assert code == 1 and result["correct"] is False


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(run.__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-96", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
