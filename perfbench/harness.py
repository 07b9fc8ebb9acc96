"""One workload run: build the inputs, call ``carcino.cli.main`` in-process,
time every call, check every output.

Correctness gates, checked on every run:

* every ``evaluate`` report is byte-identical, at ``--jobs 1`` and ``--jobs 2``
  and traced or not;
* at the default seed, the report and sweep digests equal the stored ones;
* each ``score`` output (fs, stations, indication) equals that video's row in
  the ``evaluate`` report;
* every sweep report of the run is byte-identical;
* no CLI call exits non-zero and no report lists a failed video.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import LAYERS, Recorder, install, self_times, uninstall
from workloads import DEFAULT_SEED, FOLDS, Workload
from yardstick import normalise, timed_chunk

PERCENTILES = (50, 90, 99, 99.9)
CHUNK_SHARE = 0.1  # yardstick time after each op, as a share of the op's
SHARES = {  # of --seconds; set-up runs its minimum count only, first and last
    "setup": 0.01,
    "evaluate_j1": 0.25,
    "evaluate_j2": 0.2,
    "score": 0.15,
    "gen": 0.15,
    "sweep": 0.25,
}
# per run; p90 of the score latency needs ten samples beyond it, and a median
# of the evaluate calls at least three
MINIMUMS = {"setup": 3, "evaluate_j1": 3, "evaluate_j2": 3, "score": 100, "gen": 3, "sweep": 3}
SYNC_AFTER = {"setup", "gen", "sweep"}


def rank_of(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[rank_of(len(ordered), p) - 1]


def highest_percentile(n: int) -> float | None:
    """The highest of PERCENTILES that has at least ten samples beyond it."""
    usable = [p for p in PERCENTILES if n - rank_of(n, p) >= 10]
    return max(usable) if usable else None


def import_carcino(src: Path):
    """Import carcino.cli from src afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "carcino" or n.startswith("carcino.")]:
        del sys.modules[name]
    cli = importlib.import_module("carcino.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"carcino was imported from {cli.__file__}, not from {src}")
    return cli


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class WorkloadRun:
    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path, src: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.src = src
        self.cli = None
        self.recorder: Recorder | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # gate violations
        self.samples: dict[str, list[float]] = {}
        self.chunks: list[float] = []  # wall seconds of each yardstick chunk, in order
        self.chunk_index: dict[str, list[int]] = {}  # per sample: the first chunk after it
        self.info: dict[str, object] = {}
        self.report: bytes | None = None
        self.rows: dict[str, dict] = {}
        self.sweep_report: bytes | None = None

        self.spec_path = workdir / "spec.json"
        self.spec_path.write_text(json.dumps(workload.spec_dict(seed)), encoding="utf-8")
        self.sweep_spec_path = workdir / "sweep-spec.json"
        self.sweep_spec_path.write_text(
            json.dumps(workload.spec_dict(seed, workload.sweep.reshape)), encoding="utf-8"
        )
        self.cohort = workdir / "cohort"
        self.folds = workdir / "folds.json"

    # --- bookkeeping ------------------------------------------------------

    def fail(self, gate: str, message: str) -> None:
        self.failures.append(f"{gate}: {message}")

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def call(self, argv: list, kind: str, frames: int = 0, opaque: bool = False) -> float:
        """Run one CLI call; returns its wall seconds, or NaN if it failed."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        # an opaque call is timed whole, like a pool whose workers no span can see
        layer = "pool" if opaque else "bench"
        op = (
            self.recorder.operation(f"{layer}.{kind}", f"{kind}#{self.attempted}", frames, opaque)
            if self.recorder is not None
            else contextlib.nullcontext()
        )
        detail = ""
        with op, contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is one failed operation, not the end of the run
                code, detail = None, traceback.format_exc()
            seconds = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.fail("exit", f"carcino {' '.join(argv)} -> {code}\n{detail}")
            return math.nan
        return seconds

    # --- operations -------------------------------------------------------

    def setup(self, reimport: bool = True, cohort: Path | None = None, folds: Path | None = None):
        """Import carcino, generate the cohort, load its index and write the
        fold split; returns (total seconds, simulate seconds)."""
        cohort, folds = cohort or self.cohort, folds or self.folds
        shutil.rmtree(cohort, ignore_errors=True)
        start = time.perf_counter()
        if reimport:
            self.cli = import_carcino(self.src)
        gen_s = self.call(
            ["simulate", self.spec_path, "--out", cohort],
            "simulate",
            frames=self.workload.listed_frames,
        )
        self.call(
            ["split", cohort / "index.json", "--k", FOLDS, "--seed", self.seed, "--out", folds],
            "split",
        )
        return time.perf_counter() - start, gen_s

    def evaluate(self, jobs: int) -> float:
        out = self.workdir / f"report-j{jobs}.json"
        seconds = self.call(
            [
                "evaluate",
                self.cohort / "index.json",
                "--folds",
                self.folds,
                "--jobs",
                jobs,
                "--out-json",
                out,
                *self.workload.eval_flags,
            ],
            f"evaluate-j{jobs}",
            frames=self.workload.listed_frames,
            opaque=jobs > 1,
        )
        if not math.isnan(seconds):
            self.check_report(out.read_bytes())
        return seconds

    def score(self, index: int) -> float:
        video_id = f"v{index:04d}"
        out = self.workdir / "score.json"
        seconds = self.call(
            ["score", self.cohort / "videos" / video_id / "manifest.json", "--out", out], "score"
        )
        if not math.isnan(seconds):
            self.check_score(video_id, json.loads(out.read_text(encoding="utf-8")))
        return seconds

    def generate(self) -> float:
        """simulate of the sweep's spec, whose output is deleted at once."""
        out = self.workdir / "generated"
        seconds = self.call(
            ["simulate", self.sweep_spec_path, "--out", out], "simulate", frames=self.workload.gen_frames
        )
        shutil.rmtree(out, ignore_errors=True)
        return seconds

    def sweep(self) -> float:
        plan = self.workload.sweep
        work, out = self.workdir / "sweep", self.workdir / "sweep.json"
        seconds = self.call(
            [
                "simulate",
                self.sweep_spec_path,
                "--sweep",
                plan.param,
                "--levels",
                plan.levels_arg,
                "--replicates",
                plan.replicates,
                "--out",
                work,
                "--out-json",
                out,
                "--jobs",
                1,
            ],
            "sweep",
            frames=self.workload.sweep_frames,
        )
        if "sweep_cohorts_bytes" not in self.info and work.exists():
            self.info["sweep_cohorts_bytes"] = tree_bytes(work)
        shutil.rmtree(work, ignore_errors=True)
        if not math.isnan(seconds):
            self.check_sweep(out.read_bytes())
        return seconds

    # --- gates ------------------------------------------------------------

    def _check_digest(self, kind: str, blob: bytes, stored: str | None) -> None:
        digest = hashlib.sha256(blob).hexdigest()
        self.info[f"{kind}_sha256"] = digest
        if self.seed == DEFAULT_SEED and stored is not None and digest != stored:
            self.fail("digest", f"{kind} sha256 {digest} != stored {stored}")

    def check_report(self, blob: bytes) -> None:
        report = json.loads(blob)
        self.attempted += report["n_videos"]
        self.failed += report["summary"]["failed_videos_total"]
        for entry in report["runs"]:
            for video_id, error in entry["failed"].items():
                self.fail("failed_video", f"{video_id}: {error}")
        if self.report is None:
            self.report = blob
            self._check_digest("report", blob, self.workload.report_sha256)
            for entry in report["runs"]:
                self.rows.update(entry["videos"] or {})
        elif blob != self.report:
            self.fail("jobs_equal", "evaluate report bytes differ between calls")

    def check_score(self, video_id: str, data: dict) -> None:
        row = self.rows.get(video_id)
        if row is None:
            self.fail("score_eq_eval", f"{video_id} has no row in the evaluate report")
            return
        slugs = importlib.import_module("carcino.core").STATION_SLUGS
        stations = [data["station_positive"][slug] for slug in slugs]
        got = (data["fs"], data["its"], stations)
        want = (row["fs"], row["its"], row["stations"])
        if got != want:
            self.fail("score_eq_eval", f"{video_id}: score {got} != evaluate {want}")

    def check_sweep(self, blob: bytes) -> None:
        if self.sweep_report is None:
            self.sweep_report = blob
            self._check_digest("sweep", blob, self.workload.sweep_sha256)
        elif blob != self.sweep_report:
            self.fail("sweep_equal", "sweep report bytes differ between calls")

    # --- plans ------------------------------------------------------------

    def _interleave(self, ops: dict) -> None:
        """Run ops in turns until --seconds have passed and each op has run
        its minimum count. Each turn goes to the op furthest below its share
        of the time, so every metric samples the whole run. Each op returns
        {metric: wall seconds}; yardstick chunks run between turns, for
        CHUNK_SHARE of the turn before, and normalise those times."""
        spent = dict.fromkeys(ops, 0.0)
        count = dict.fromkeys(ops, 0)
        start = time.perf_counter()
        self.yardstick(0.0)
        while True:
            over = time.perf_counter() - start >= self.seconds
            due = [k for k in ops if count[k] < MINIMUMS[k] or not over]
            if not due:
                return
            k = min(due, key=lambda k: spent[k] / SHARES[k])  # ties go to the first
            began = time.perf_counter()
            walls = ops[k]()
            seconds = time.perf_counter() - began
            spent[k] += seconds
            count[k] += 1
            if k in SYNC_AFTER:
                os.sync()  # so no write-back of this op's files runs during later ones
            for metric, wall in walls.items():
                self.sample(metric, wall)
                self.chunk_index.setdefault(metric, []).append(len(self.chunks))
            self.yardstick(seconds)

    def yardstick(self, after: float) -> None:
        """Run yardstick chunks for CHUNK_SHARE of `after` seconds, at least one."""
        spent = 0.0
        while spent == 0.0 or spent < CHUNK_SHARE * after:
            seconds = timed_chunk()
            self.chunks.append(seconds)
            spent += seconds

    def normalised(self, metric: str) -> list[float]:
        return [
            normalise(wall, self.chunks, at)
            for wall, at in zip(self.samples[metric], self.chunk_index[metric])
        ]

    def measure(self) -> dict:
        """Untraced run; returns the end-to-end metrics as {name: (value, unit)}."""
        w = self.workload
        n_videos = w.spec["n_videos"]
        scored = 0

        def setup():
            # the first set-up builds the cohort the other ops read; later ones
            # build a copy that is deleted at once, before any of it is written
            # back to disk
            if "setup_s" not in self.samples:
                setup_s, _ = self.setup()
                self.info["cohort_bytes"] = tree_bytes(self.cohort)
            else:
                again = self.workdir / "setup-again"
                setup_s, _ = self.setup(cohort=again / "cohort", folds=again / "folds.json")
                shutil.rmtree(again)
            return {"setup_s": setup_s}

        def score():
            nonlocal scored
            scored += 1
            return {"score_s": self.score((scored - 1) % n_videos)}

        # in this order: evaluate needs the cohort, and score outputs are
        # checked against the evaluate report
        self._interleave(
            {
                "setup": setup,
                "evaluate_j1": lambda: {"eval_j1_s": self.evaluate(1)},
                "evaluate_j2": lambda: {"eval_j2_s": self.evaluate(2)},
                "score": score,
                "gen": lambda: {"gen_s": self.generate()},
                "sweep": lambda: {"sweep_s": self.sweep()},
            }
        )

        # Every time metric is a median or percentile of normalised samples
        # (see yardstick): the host's speed drifts by a third, over seconds
        # and over minutes, which no run length averages away
        norm = {k: self.normalised(k) for k in self.samples}
        med = {k: statistics.median(v) for k, v in norm.items()}
        score_ms = [s * 1e3 for s in norm["score_s"]]
        top = highest_percentile(len(score_ms))
        if top is None or top < 90:
            raise RuntimeError(f"{len(score_ms)} score calls cannot support p90")
        self.info["score_highest_percentile"] = (top, percentile(score_ms, top))
        return {
            "setup_s": (med["setup_s"], "s"),
            "eval_frames_per_s": (w.listed_frames / med["eval_j1_s"], "frames/s"),
            "eval_par_frames_per_s": (w.listed_frames / med["eval_j2_s"], "frames/s"),
            "score_p50_ms": (percentile(score_ms, 50), "ms"),
            "score_p90_ms": (percentile(score_ms, 90), "ms"),
            "gen_frames_per_s": (w.gen_frames / med["gen_s"], "frames/s"),
            "sweep_frames_per_s": (w.sweep_frames / med["sweep_s"], "frames/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def _pass(self, cohort: Path, folds: Path, reimport: bool) -> dict[str, float]:
        """One setup, evaluate at --jobs 1 and 2, one score cycle and one
        sweep; returns the wall seconds of each."""
        times = {}
        _, times["simulate"] = self.setup(reimport, cohort, folds)
        times["evaluate-j1"] = self.evaluate(1)
        times["evaluate-j2"] = self.evaluate(2)
        times["score"] = sum(self.score(i) for i in range(self.workload.spec["n_videos"]))
        times["sweep"] = self.sweep()
        return times

    def trace(self) -> dict:
        """Untraced pass, then the same pass traced; returns the per-layer
        metrics as {name: (value, unit)}."""
        plain = self._pass(self.cohort, self.folds, reimport=True)
        self.info["cohort_bytes"] = tree_bytes(self.cohort)
        self.recorder = Recorder()
        patched = install(self.recorder)
        try:
            # the traced setup builds a second copy; evaluate and score read the first
            traced = self._pass(self.workdir / "cohort-traced", self.workdir / "folds-traced.json", False)
        finally:
            uninstall(patched)
            spans, self.recorder = self.recorder.spans, None
        shutil.rmtree(self.workdir / "cohort-traced", ignore_errors=True)
        plain_wall, traced_wall = sum(plain.values()), sum(traced.values())
        speedup = plain["evaluate-j1"] / plain["evaluate-j2"]
        self.info["pool_speedup_bases"] = (plain["evaluate-j1"], plain["evaluate-j2"])
        self.info["walls"] = (plain_wall, traced_wall)
        metrics = layer_metrics(spans, self.info)
        metrics["cohort.pool_speedup"] = (speedup, "ratio")
        metrics["trace.overhead_ratio"] = (traced_wall / plain_wall - 1, "ratio")
        if abs(self.info["self_sum_s"] - self.info["span_wall_s"]) > 1e-3:
            self.fail("trace", "layer self times do not add up to the traced wall time")
        return metrics


def layer_metrics(spans, info: dict) -> dict:
    """Per-layer metrics from the spans of a traced pass."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span

    def named(name, under=None):
        return [
            s
            for s in spans
            if s.name == name and (under is None or any(a.name == under for a in ancestors(s)))
        ]

    def calls(name, under=None):
        return len(named(name, under))

    def total(name, under=None):
        return sum(s.duration for s in named(name, under))

    def self_sum(*names):
        return sum(selfs[s.id] for name in names for s in named(name))

    def work(name):
        return sum(s.count for s in named(name))

    roots = [s for s in spans if s.parent is None]
    wall = sum(s.duration for s in roots)
    info["span_wall_s"] = wall
    info["self_sum_s"] = sum(selfs.values())
    generated = work("synth.generate_cohort")
    classified = calls("pipeline.classify_frame")
    evaluated = calls("pipeline.classify_frame", under="cohort.evaluate_cohort")
    metric_names = sorted({s.name for s in spans if s.layer == "metrics"})
    ms = 1e3
    out = {
        "maskio.load_frame.ms_per_frame": (total("maskio.load_frame") / calls("maskio.load_frame") * ms, "ms"),
        "maskio.load_frame.mb_per_s": (work("maskio.load_frame") / total("maskio.load_frame") / 1e6, "MB/s"),
        "maskio.write_raster.ms_per_frame": (total("maskio.write_raster") / generated * ms, "ms"),
        "maskio.bytes_written_per_frame": (work("maskio.write_raster") / generated, "B"),
        "maskio.load_manifest.ms_per_call": (
            total("maskio.load_manifest") / calls("maskio.load_manifest") * ms,
            "ms",
        ),
        "pipeline.connected_components.ms_per_frame": (
            total("pipeline.connected_components") / calls("pipeline.connected_components") * ms,
            "ms",
        ),
        "pipeline.assign_nodules.ms_per_frame": (
            total("pipeline.assign_nodules") / calls("pipeline.assign_nodules") * ms,
            "ms",
        ),
        "pipeline.assign_nodules.us_per_nodule": (
            total("pipeline.assign_nodules") / work("pipeline.assign_nodules") * 1e6,
            "us",
        ),
        "pipeline.nodules_per_frame": (
            work("pipeline.assign_nodules") / calls("pipeline.assign_nodules"),
            "count",
        ),
        "pipeline.threshold.ms_per_frame": (
            (total("pipeline.threshold_organ_masks") + total("pipeline.threshold_pc_mask"))
            / classified
            * ms,
            "ms",
        ),
        "pipeline.classify_frame.self_ms_per_frame": (
            self_sum("pipeline.classify_frame") / classified * ms,
            "ms",
        ),
        "pipeline.score_video.self_ms_per_video": (
            self_sum("pipeline.score_video") / calls("pipeline.score_video") * ms,
            "ms",
        ),
        "metrics.self_ms_per_frame": (self_sum(*metric_names) / evaluated * ms, "ms"),
        "metrics.dice.calls": (float(calls("metrics.dice")), "count"),
        "cohort.evaluate_cohort.self_ms_per_video": (
            self_sum("cohort.evaluate_cohort", "cohort._assess_video")
            / calls("cohort._assess_video")
            * ms,
            "ms",
        ),
        "cohort.frames_loaded_per_listed": (
            calls("maskio.load_frame", under="bench.evaluate-j1") / work("bench.evaluate-j1"),
            "ratio",
        ),
        "cohort.load_cohort.ms": (total("cohort.load_cohort") / calls("cohort.load_cohort") * ms, "ms"),
        "cohort.stratified_kfold.ms": (
            total("cohort.stratified_kfold") / calls("cohort.stratified_kfold") * ms,
            "ms",
        ),
        "synth.generate_cohort.self_ms_per_frame": (
            self_sum("synth.generate_cohort") / generated * ms,
            "ms",
        ),
        "synth.monte_carlo_sweep.eval_share": (
            total("cohort.evaluate_cohort", under="synth.monte_carlo_sweep")
            / total("synth.monte_carlo_sweep"),
            "ratio",
        ),
        "cli.main.self_ms_per_call": (self_sum("cli.main") / calls("cli.main") * ms, "ms"),
    }
    for layer in ("bench", "pool", *LAYERS):
        layer_self = sum(selfs[s.id] for s in spans if s.layer == layer)
        out[f"{layer}.self_share"] = (layer_self / wall, "ratio")
    return out
