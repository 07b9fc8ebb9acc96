"""Acceptance suite: one test per release criterion, each at its stated
tolerance. The terminal summary hook prints one PASS/FAIL line per
criterion at the end of the run."""

import json
import math
import time
from dataclasses import replace

import numpy as np

from carcino import maskio, pipeline, synth
from carcino.cli import main
from carcino.cohort import (
    evaluate_cohort,
    independent_runs,
    load_cohort,
    stratified_kfold,
)
from carcino.core import Indication, ScoringConstants
from carcino.metrics import (
    ConfusionCounts,
    balanced_accuracy,
    dice,
    normalized_rmse,
    precision_recall_f1,
)
from carcino.synth import NoiseSpec, SynthSpec

from conftest import classify, cohort_video, make_frame
from oracles import flood_components, nodule_list, oracle_fs, oracle_stations, pixel_set

CONSTANTS = ScoringConstants()


def test_normalized_rmse_consistency_with_reported_results():
    """normalized_rmse(2.78) = 1.39 and normalized_rmse(2.29) = 1.15 at
    two decimals (exact after rounding)."""
    assert round(normalized_rmse(2.78), 2) == 1.39
    assert round(normalized_rmse(2.29), 2) == 1.15


def test_fs_arithmetic_exhaustive_over_station_vectors():
    """All 64 station vectors: fs = 2 x popcount, indication flips
    exactly at popcount 4 (fs 8). Exact."""
    for bits in range(64):
        stations = tuple(bool(bits >> s & 1) for s in range(6))
        popcount = sum(stations)
        fs = pipeline.compute_fs(stations, CONSTANTS)
        assert fs == 2 * popcount
        its = pipeline.compute_its(fs, CONSTANTS)
        expected = (
            Indication.SURGERY_CONTRAINDICATED
            if popcount >= 4
            else Indication.SURGERY_INDICATED
        )
        assert its is expected


def test_connected_components_oracle_equivalence():
    """1,000 random masks up to 16x16: component partition matches an
    exhaustive flood fill under both 4- and 8-connectivity. Exact,
    under 10 s."""
    started = time.monotonic()
    rng = np.random.default_rng(20250801)
    for i in range(1000):
        height = int(rng.integers(1, 17))
        width = int(rng.integers(1, 17))
        mask = rng.random((height, width)) < float(rng.random())
        for connectivity in (4, 8):
            nodules = pipeline.connected_components(mask, connectivity=connectivity)
            got = [pixel_set(n) for n in nodule_list(nodules, mask)]
            assert got == flood_components(mask, connectivity=connectivity)
    assert time.monotonic() - started < 10.0


def test_pipeline_zero_noise_exactness(acceptance_cohort_index):
    """Seeded 50-video x 10-frame 64x64 zero-noise cohort: fs equals the
    oracle for all 50 videos, station F1 = 1.0 for all six stations,
    ItS F1 = 1.0, RMSE = 0. Exact, under 60 s."""
    started = time.monotonic()
    cohort = load_cohort(acceptance_cohort_index)
    assert len(cohort.videos) == 50
    for video in cohort.videos:
        assessment = pipeline.score_video(maskio.load_manifest(video.manifest_path))
        assert assessment.fs == oracle_fs(video)
        assert assessment.station_positive == oracle_stations(video)
    report = evaluate_cohort(
        cohort, independent_runs(cohort), CONSTANTS, compute_dice=False
    )
    run = report["runs"][0]
    for slug, row in run["stations"].items():
        assert row["f1"] == 1.0, f"station {slug}"
    assert run["its"][Indication.SURGERY_INDICATED.value]["f1"] == 1.0
    assert run["its"][Indication.SURGERY_CONTRAINDICATED.value]["f1"] == 1.0
    assert run["its_average"]["f1"] == 1.0
    assert run["fs_rmse"] == 0.0
    assert time.monotonic() - started < 60.0


def test_threshold_subset_monotonicity():
    """500 random frames: mask(t + 0.05) is a subset of mask(t) for the
    organ and carcinomatosis channels at t in {0.5, 0.7, 0.9}. Exact,
    under 10 s."""
    started = time.monotonic()
    rng = np.random.default_rng(9090)
    for _ in range(500):
        frame = make_frame(
            rng.random((8, 16, 16), dtype=np.float32),
            rng.random((16, 16), dtype=np.float32),
        )
        for t in (0.5, 0.7, 0.9):
            lo = ScoringConstants(
                organ_confidence_threshold=t, pc_confidence_threshold=t
            )
            hi = ScoringConstants(
                organ_confidence_threshold=t + 0.05, pc_confidence_threshold=t + 0.05
            )
            organ_hi = pipeline.threshold_organ_masks(frame, hi)
            organ_lo = pipeline.threshold_organ_masks(frame, lo)
            assert not (organ_hi & ~organ_lo).any()
            pc_hi = pipeline.threshold_pc_mask(frame, hi)
            pc_lo = pipeline.threshold_pc_mask(frame, lo)
            assert not (pc_hi & ~pc_lo).any()
    assert time.monotonic() - started < 10.0


def test_nodule_partition_on_zero_noise_cohort(acceptance_cohort_index):
    """Every frame of the zero-noise cohort: nodule pixel sets are
    pairwise disjoint and their union equals the thresholded
    carcinomatosis mask. Exact."""
    cohort = load_cohort(acceptance_cohort_index)
    frames_checked = 0
    for video in cohort.videos:
        manifest = maskio.load_manifest(video.manifest_path)
        for record in manifest.frames:
            frame = maskio.load_frame(record, manifest.base_dir)
            _, nodules = classify(frame, CONSTANTS)
            mask = pipeline.threshold_pc_mask(frame, CONSTANTS)
            union = set()
            for nodule in nodule_list(nodules, mask):
                assert not (union & pixel_set(nodule))
                union |= pixel_set(nodule)
            expected = {(int(r), int(c)) for r, c in zip(*np.nonzero(mask))}
            assert union == expected
            frames_checked += 1
    assert frames_checked == 500


def test_metric_formulas_against_hand_values():
    """dice half-overlap = 0.5; P/R/F1 on (tp=2, fp=1, fn=1) all 2/3;
    balanced accuracy on (tp=9, fp=2, tn=8, fn=1) = 0.85. Tolerance
    1e-12."""
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0, 0:4] = True
    b[0, 2:4] = b[1, 0:2] = True
    assert abs(dice(a, b) - 0.5) < 1e-12
    p, r, f1 = precision_recall_f1(ConfusionCounts(tp=2, fp=1, fn=1))
    assert abs(p - 2 / 3) < 1e-12
    assert abs(r - 2 / 3) < 1e-12
    assert abs(f1 - 2 / 3) < 1e-12
    value = balanced_accuracy(ConfusionCounts(tp=9, fp=2, tn=8, fn=1))
    assert abs(value - 0.85) < 1e-12


def _uniform_101_cohort(tmp_path):
    from carcino.cohort import Cohort

    videos = []
    for i in range(101):
        stations = tuple(s < i % 7 for s in range(6))
        videos.append(cohort_video(f"v{i:04d}", maskio.VideoGroundTruth(stations)))
    return Cohort(name="uniform101", videos=tuple(videos))


def test_split_properties_on_101_videos(tmp_path):
    """k = 4 over 101 FS-uniform videos: exact partition, fold sizes
    {26,25,25,25}, fold FS-mean spread <= 0.5 points, byte-identical
    reruns for the same seed. Instant."""
    cohort = _uniform_101_cohort(tmp_path)
    folds = stratified_kfold(cohort, k=4, seed=17)
    assert set(folds.assignment) == {v.video_id for v in cohort.videos}
    sizes = sorted(
        sum(1 for f in folds.assignment.values() if f == fold) for fold in range(4)
    )
    assert sizes == [25, 25, 25, 26]
    means = []
    for fold in range(4):
        values = [
            v.ground_truth.fs
            for v in cohort.videos
            if folds.assignment[v.video_id] == fold
        ]
        means.append(sum(values) / len(values))
    assert max(means) - min(means) <= 0.5
    # the bytes split writes
    text_a = maskio.canonical_json(stratified_kfold(cohort, k=4, seed=17).to_dict())
    text_b = maskio.canonical_json(stratified_kfold(cohort, k=4, seed=17).to_dict())
    assert text_a == text_b


def test_monte_carlo_miss_rate_extremes():
    """Sweep miss_rate over {0, 1}: level 0 gives normalized RMSE 0 in
    every replicate; level 1 (no false blobs) gives all-negative
    predictions whose RMSE equals the closed-form RMS of the planted
    scores. Tolerance 1e-9, under 2 minutes."""
    started = time.monotonic()
    base = SynthSpec(seed=4242, n_videos=10, frame_size=(32, 32), frames_per_video=3)
    report = synth.monte_carlo_sweep(base, "miss_rate", [0.0, 1.0], replicates=2)
    level0, level1 = report["levels"]
    assert all(abs(v) < 1e-9 for v in level0["values"]["fs_rmse_normalized"])
    for rep_index, observed in enumerate(level1["values"]["fs_rmse"]):
        rep_seed = synth._replicate_seed(base.seed, 1, rep_index)
        rep_spec = replace(base, seed=rep_seed, noise=NoiseSpec(miss_rate=1.0))
        gt_fs = [
            2 * sum(synth._planted_stations(rep_spec, i))
            for i in range(rep_spec.n_videos)
        ]
        expected = math.sqrt(sum(v * v for v in gt_fs) / len(gt_fs))
        assert abs(observed - expected) < 1e-9
    assert time.monotonic() - started < 120.0


def test_evaluate_bytes_identical_across_jobs(small_cohort_index, tmp_path):
    """cmd_evaluate with --jobs 1 and --jobs 8 writes byte-identical
    reports on the synthetic cohort."""
    out = {}
    for jobs in (1, 8):
        json_path = tmp_path / f"report_j{jobs}.json"
        text_path = tmp_path / f"report_j{jobs}.txt"
        code = main(
            [
                "evaluate",
                str(small_cohort_index),
                "--independent",
                "--jobs",
                str(jobs),
                "--out-json",
                str(json_path),
                "--out-text",
                str(text_path),
            ]
        )
        assert code == 0
        out[jobs] = (json_path.read_bytes(), text_path.read_bytes())
    assert out[1] == out[8]
    report = json.loads(out[1][0])
    assert report["summary"]["fs_rmse"]["mean"] == 0.0
