import json
import os
import shutil
import time
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest

from carcino import cohort as cm
from carcino import maskio
from carcino.cohort import (
    EvalRun,
    FoldAssignment,
    evaluate_cohort,
    independent_runs,
    load_cohort,
    render_report_text,
    runs_from_folds,
    stratified_kfold,
)
from carcino.core import ScoringConstants
from carcino.errors import CarcinoError
from conftest import cohort_video
from oracles import fold_ids


def _cohort_with_fs(fs_values, name="toy"):
    """In-memory cohort whose videos have the given ground-truth scores."""
    videos = []
    for i, fs in enumerate(fs_values):
        stations = tuple(s < fs // 2 for s in range(6))
        videos.append(cohort_video(f"v{i:03d}", maskio.VideoGroundTruth(stations)))
    return cm.Cohort(name=name, videos=tuple(videos))


def _fold_fs_means(cohort, folds):
    means = []
    for fold in range(folds.k):
        values = [
            v.ground_truth.fs
            for v in cohort.videos
            if folds.assignment[v.video_id] == fold
        ]
        means.append(sum(values) / len(values))
    return means


# --- stratified k-fold -------------------------------------------------------


def test_snake_deal_balances_paired_scores():
    cohort = _cohort_with_fs([0, 0, 4, 4, 8, 8, 12, 12])
    folds = stratified_kfold(cohort, k=4, seed=1)
    sizes = [len(fold_ids(folds, f)) for f in range(4)]
    assert sizes == [2, 2, 2, 2]
    assert _fold_fs_means(cohort, folds) == [6.0, 6.0, 6.0, 6.0]


def test_k1_single_fold():
    cohort = _cohort_with_fs([0, 2, 4])
    folds = stratified_kfold(cohort, k=1, seed=0)
    assert set(folds.assignment.values()) == {0}
    assert len(folds.assignment) == 3


def test_too_few_videos():
    cohort = _cohort_with_fs([0, 2, 4, 6])
    with pytest.raises(CarcinoError, match="cohort has 4 videos, cannot make 5 folds"):
        stratified_kfold(cohort, k=5, seed=0)
    with pytest.raises(CarcinoError, match="fold count must be >= 1, got 0"):
        stratified_kfold(cohort, k=0, seed=0)


def test_missing_ground_truth_rejected():
    video = cohort_video("x", None)
    cohort = cm.Cohort(name="t", videos=(video,))
    with pytest.raises(CarcinoError, match="has no ground truth"):
        stratified_kfold(cohort, k=1, seed=0)


def test_fold_partition_is_exact():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, min(n, 6) + 1))
        fs_values = [2 * int(x) for x in rng.integers(0, 7, size=n)]
        cohort = _cohort_with_fs(fs_values)
        folds = stratified_kfold(cohort, k=k, seed=trial)
        assert set(folds.assignment) == {v.video_id for v in cohort.videos}
        assert set(folds.assignment.values()) == set(range(k))
        sizes = [len(fold_ids(folds, f)) for f in range(k)]
        assert max(sizes) - min(sizes) <= 1


def test_fold_means_match_snake_reference():
    """The implementation must reproduce an independently coded snake
    deal over the score-sorted list (shuffling within equal scores
    cannot change the dealt score sequence)."""
    rng = np.random.default_rng(23)
    for trial in range(10):
        n = int(rng.integers(6, 30))
        k = int(rng.integers(2, 5))
        if n < k:
            continue
        fs_values = [2 * int(x) for x in rng.integers(0, 7, size=n)]
        cohort = _cohort_with_fs(fs_values)
        folds = stratified_kfold(cohort, k=k, seed=trial)
        reference = {f: [] for f in range(k)}
        for i, fs in enumerate(sorted(fs_values)):
            cycle, pos = divmod(i, k)
            fold = pos if cycle % 2 == 0 else k - 1 - pos
            reference[fold].append(fs)
        got = {
            f: sorted(
                v.ground_truth.fs
                for v in cohort.videos
                if folds.assignment[v.video_id] == f
            )
            for f in range(k)
        }
        assert got == {f: sorted(vals) for f, vals in reference.items()}


def test_snake_spread_stays_within_one_score_step():
    """Stratification quality in the regime splits are used for (at
    least ~6 videos per fold): fold score means stay within one score
    step of each other, for uniform and random score distributions."""
    rng = np.random.default_rng(37)
    for trial in range(20):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(6 * k, 80))
        if trial % 2 == 0:
            fs_values = [2 * (i % 7) for i in range(n)]  # FS-uniform
        else:
            fs_values = [2 * int(x) for x in rng.integers(0, 7, size=n)]
        cohort = _cohort_with_fs(fs_values)
        folds = stratified_kfold(cohort, k=k, seed=trial)
        means = _fold_fs_means(cohort, folds)
        assert max(means) - min(means) <= 2.0


def test_kfold_deterministic_and_file_bytes_stable(tmp_path):
    cohort = _cohort_with_fs([2 * (i % 7) for i in range(23)])
    a = stratified_kfold(cohort, k=4, seed=99)
    b = stratified_kfold(cohort, k=4, seed=99)
    assert a.assignment == b.assignment
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(maskio.canonical_json(a.to_dict()), encoding="utf-8")
    path_b.write_text(maskio.canonical_json(b.to_dict()), encoding="utf-8")
    assert path_a.read_bytes() == path_b.read_bytes()
    loaded = cm.load_folds(path_a)
    assert loaded == a


def test_kfold_seed_changes_assignment_within_ties_only():
    # 12 identical scores: any assignment is valid stratification; seeds
    # may differ, but fold sizes stay balanced
    cohort = _cohort_with_fs([4] * 12)
    a = stratified_kfold(cohort, k=3, seed=1)
    b = stratified_kfold(cohort, k=3, seed=2)
    for folds in (a, b):
        sizes = [len(fold_ids(folds, f)) for f in range(3)]
        assert sizes == [4, 4, 4]


# --- cohort loading -----------------------------------------------------------


def test_load_cohort_roundtrip(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    assert len(cohort.videos) == 12
    assert all(v.ground_truth is not None for v in cohort.videos)
    ids = [v.video_id for v in cohort.videos]
    assert ids == sorted(ids)


def test_load_cohort_rejects_id_mismatch(tmp_path, small_cohort_index):
    index = json.loads(small_cohort_index.read_text())
    index["videos"][0]["video_id"] = "wrong"
    bad = small_cohort_index.parent / "bad_index.json"
    bad.write_text(json.dumps(index))
    with pytest.raises(CarcinoError):
        load_cohort(bad)


@pytest.mark.parametrize(
    "index",
    [
        [],
        {"videos": 5},
        {"videos": ["v0000"]},
        {"videos": [{"video_id": "v0000", "manifest": 7}]},
        {"videos": [{"video_id": 7, "manifest": "v0000.json"}]},
    ],
)
def test_load_cohort_rejects_malformed_index(tmp_path, index):
    """A non-list 'videos' and non-string entry fields used to escape as
    TypeError."""
    path = tmp_path / "index.json"
    path.write_text(json.dumps(index))
    with pytest.raises(CarcinoError, match=str(path)):
        load_cohort(path)


def test_duplicate_video_ids_rejected():
    video = cohort_video("dup", None)
    with pytest.raises(CarcinoError):
        cm.Cohort(name="d", videos=(video, video))


# --- evaluation ------------------------------------------------------------------


def test_oracle_self_evaluation_is_perfect(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    report = evaluate_cohort(cohort, independent_runs(cohort), predictor="oracle")
    run = report["runs"][0]
    assert run["fs_rmse"] == 0.0
    for slug, row in run["stations"].items():
        if row["tp"] + row["fn"] > 0 and row["tp"] + row["fp"] > 0:
            assert row["f1"] == 1.0
        assert row["fp"] == 0 and row["fn"] == 0
    assert run["its_average"]["f1"] == 1.0
    assert run["dice"] is None  # oracle mode has no frame-level pass
    summary = report["summary"]
    assert summary["fs_rmse"]["mean"] == 0.0


def test_all_negative_predictor_recall_zero(small_cohort_index):
    """Planted confidences stop at 0.97, so a carcinomatosis threshold of
    1.0 leaves every station negative."""
    cohort = load_cohort(small_cohort_index)
    constants = ScoringConstants(pc_confidence_threshold=1.0)
    report = evaluate_cohort(cohort, independent_runs(cohort), constants)
    run = report["runs"][0]
    assert run["n_failed"] == 0
    assert {video["fs"] for video in run["videos"].values()} == {0}
    for slug, row in run["stations"].items():
        if row["tp"] + row["fn"] > 0:
            assert row["recall"] == 0.0
        assert row["precision"] is None  # no positive predictions
    gt_fs = [v.ground_truth.fs for v in cohort.videos]
    expected_rmse = float(np.sqrt(np.mean(np.square(gt_fs))))
    assert abs(run["fs_rmse"] - expected_rmse) < 1e-9


def test_pipeline_zero_noise_matches_oracle_run(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    runs = independent_runs(cohort)
    via_pipeline = evaluate_cohort(cohort, runs, predictor="pipeline")
    via_oracle = evaluate_cohort(cohort, runs, predictor="oracle")
    for key in ("stations", "stations_average", "its", "its_average"):
        assert via_pipeline["runs"][0][key] == via_oracle["runs"][0][key]
    assert via_pipeline["runs"][0]["fs_rmse"] == 0.0
    # frame-level metrics exist and are perfect in the zero-noise cohort
    assert via_pipeline["runs"][0]["dice"]["anatomical_structures_average"] == 1.0
    assert via_pipeline["runs"][0]["roi_balanced_accuracy"] == 1.0
    # the oracle feeds back stations only: it predicts no frame relevance
    assert via_oracle["runs"][0]["roi_balanced_accuracy"] is None
    assert via_oracle["summary"]["roi_balanced_accuracy"] is None


def test_cross_validation_mode_summary(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    folds = stratified_kfold(cohort, k=3, seed=5)
    report = evaluate_cohort(cohort, folds)
    assert report["mode"] == "cross_validation"
    assert len(report["runs"]) == 3
    assert {r["label"] for r in report["runs"]} == {"fold0", "fold1", "fold2"}
    summary = report["summary"]
    assert summary["n_runs"] == 3
    assert summary["fs_rmse"]["mean"] == 0.0
    assert summary["fs_rmse"]["std"] == 0.0
    # every video appears in exactly one run
    totals = sum(r["n_videos"] for r in report["runs"])
    assert totals == len(cohort.videos)


def test_dice_average_modes_differ_as_designed(tmp_path):
    """Hand-built rasters where frame pooling and per-video averaging
    disagree: diaphragm dice values are {1.0, 0.0} in video A and {1.0}
    in video B, so frame mode gives 2/3 and video mode 3/4."""
    from conftest import blank_organ_conf, write_video

    def organ_frame(pixels, gt_pixels):
        organ = blank_organ_conf((4, 4))
        labels = np.zeros((4, 4), dtype=np.uint8)
        for r, c in pixels:
            organ[0, r, c] = 0.95
        for r, c in gt_pixels:
            labels[r, c] = 1
        return {
            "organ_conf": organ,
            "pc_conf": np.zeros((4, 4), dtype=np.float32),
            "gt_labels": labels,
            "gt_roi": True,
        }

    gt = maskio.VideoGroundTruth((False,) * 6)
    write_video(
        tmp_path,
        "va",
        [
            organ_frame([(0, 0), (0, 1)], [(0, 0), (0, 1)]),  # dice 1.0
            organ_frame([(0, 0), (0, 1)], []),  # dice 0.0
        ],
        ground_truth=gt,
    )
    write_video(tmp_path, "vb", [organ_frame([(1, 1)], [(1, 1)])], ground_truth=gt)
    entries = [("va", "va/manifest.json"), ("vb", "vb/manifest.json")]
    cm.save_cohort_index("dicecase", entries, tmp_path / "index.json")
    cohort = load_cohort(tmp_path / "index.json")
    runs = independent_runs(cohort)
    by_frame = evaluate_cohort(cohort, runs, dice_average="frame")
    by_video = evaluate_cohort(cohort, runs, dice_average="video")
    assert abs(by_frame["runs"][0]["dice"]["diaphragm"] - 2 / 3) < 1e-12
    assert abs(by_video["runs"][0]["dice"]["diaphragm"] - 3 / 4) < 1e-12


def test_dice_and_roi_can_be_disabled(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    report = evaluate_cohort(
        cohort,
        independent_runs(cohort),
        compute_dice=False,
        compute_roi=False,
    )
    run = report["runs"][0]
    assert run["dice"] is None
    assert run["roi_balanced_accuracy"] is None
    assert report["summary"]["dice"] is None


def test_roi_counts_leave_out_failed_videos(tmp_path):
    """A video that fails to score adds none of its flagged frames to the
    run's relevance counts: here its one frame, a relevant frame the ROI
    rule misses, would bring balanced accuracy from 1.0 to 0.75."""
    from conftest import blank_organ_conf, write_video

    def frame(roi_score, gt_roi):
        pc = np.zeros((2, 2), dtype=np.float32)
        return {"organ_conf": blank_organ_conf((2, 2)), "pc_conf": pc,
                "roi_score": roi_score, "gt_roi": gt_roi}

    gt = maskio.VideoGroundTruth((False,) * 6)
    write_video(tmp_path, "ok", [frame(0.9, True), frame(0.1, False)], ground_truth=gt)
    write_video(tmp_path, "fails", [frame(0.1, True)], ground_truth=gt)  # no ROI frame
    entries = [("ok", "ok/manifest.json"), ("fails", "fails/manifest.json")]
    cm.save_cohort_index("roicase", entries, tmp_path / "index.json")
    cohort = load_cohort(tmp_path / "index.json")
    run = evaluate_cohort(cohort, independent_runs(cohort))["runs"][0]
    assert list(run["failed"]) == ["fails"]
    assert run["roi_balanced_accuracy"] == 1.0
    counts = [cm._relevance_counts(v.manifest.frames, ScoringConstants()) for v in cohort.videos]
    assert cm.metrics.balanced_accuracy(sum(counts, cm.ConfusionCounts())) == 0.75


def test_four_fold_run_gives_four_values_plus_summary(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    folds = stratified_kfold(cohort, k=4, seed=2)
    report = evaluate_cohort(cohort, folds, compute_dice=False)
    assert [r["label"] for r in report["runs"]] == ["fold0", "fold1", "fold2", "fold3"]
    rmse_values = [r["fs_rmse"] for r in report["runs"]]
    assert len(rmse_values) == 4
    summary = report["summary"]["fs_rmse"]
    assert summary["n"] == 4
    assert summary["mean"] == sum(rmse_values) / 4


def test_evaluate_requires_ground_truth(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    stripped = cm.Cohort(
        name=cohort.name,
        videos=tuple(
            cm.CohortVideo(v.video_id, v.manifest_path, replace(v.manifest, ground_truth=None))
            for v in cohort.videos
        ),
    )
    with pytest.raises(CarcinoError, match="has no ground truth") as excinfo:
        evaluate_cohort(stripped, independent_runs(stripped), predictor="oracle")
    assert "v00" in str(excinfo.value)


def test_failed_videos_are_recorded_not_fatal(small_cohort_index, tmp_path):
    root = shutil.copytree(small_cohort_index.parent, tmp_path / "cohort")
    cohort = load_cohort(root / "index.json")
    broken = cohort.videos[0]
    (broken.manifest_path.parent / "frames/f0000.organ.msk").write_bytes(b"MSK1")
    report = evaluate_cohort(cohort, independent_runs(cohort))
    run = report["runs"][0]
    assert run["n_failed"] == 1
    assert run["failed"] == {
        broken.video_id: "file shorter than the 14-byte header in "
        f"{broken.manifest_path.parent / 'frames/f0000.organ.msk'}"
    }
    assert broken.video_id not in run["videos"]
    assert run["fs_rmse"] == 0.0  # failures are excluded, not imputed
    assert report["summary"]["failed_videos_total"] == 1


def test_an_unexpected_exception_fails_one_video(small_cohort_index, monkeypatch):
    """An exception that is not carcino's, raised while one video is
    scored, fails that video alone, named by its class, at any --jobs."""
    cohort = load_cohort(small_cohort_index)
    broken = cohort.videos[3].video_id
    score_frames = cm.pipeline.score_frames

    def faulty(video_id, *args):
        if video_id == broken:
            raise ValueError("boom")
        return score_frames(video_id, *args)

    monkeypatch.setattr(cm.pipeline, "score_frames", faulty)
    reports = [evaluate_cohort(cohort, independent_runs(cohort), jobs=jobs) for jobs in (1, 2)]
    assert maskio.canonical_json(reports[0]) == maskio.canonical_json(reports[1])
    assert render_report_text(reports[0]) == render_report_text(reports[1])
    assert reports[0]["runs"][0]["failed"] == {broken: "ValueError: boom"}


def test_evaluate_rejects_a_callable_predictor(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    with pytest.raises(CarcinoError, match="unknown predictor"):
        evaluate_cohort(cohort, independent_runs(cohort), predictor=lambda video: None)


@pytest.mark.parametrize(
    "options, message",
    [
        ({"dice_average": "median"}, "dice_average must be 'frame' or 'video'"),
        ({"runs": []}, "no runs to evaluate"),
        # a run of no videos, which used to be reported as a run whose videos all failed
        ({"runs": [EvalRun("empty", ()), EvalRun("one", ("v00",))]}, "^run 'empty' has no videos$"),
    ],
    ids=["unknown-dice-average", "no-runs", "run-without-videos"],
)
def test_evaluate_rejects_bad_options(small_cohort_index, options, message):
    cohort = load_cohort(small_cohort_index)
    with pytest.raises(CarcinoError, match=message):
        evaluate_cohort(cohort, **{"runs": independent_runs(cohort), **options})


def test_evaluate_deterministic_across_jobs(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    runs = independent_runs(cohort)
    report1 = evaluate_cohort(cohort, runs, jobs=1)
    report2 = evaluate_cohort(cohort, runs, jobs=4)
    assert maskio.canonical_json(report1) == maskio.canonical_json(report2)


def test_independent_mode_is_one_run_over_the_cohort(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    report = evaluate_cohort(
        cohort, independent_runs(cohort), mode="independent", compute_dice=False
    )
    assert [run["label"] for run in report["runs"]] == ["model0"]
    assert report["runs"][0]["n_videos"] == len(cohort.videos)
    assert report["summary"]["fs_rmse"]["n"] == 1


def _slow_divmod(a, b):
    """divmod that takes longer the smaller a is, so that in a pool the
    tasks below finish in reverse order."""
    time.sleep(0.02 * (12 - a))
    return divmod(a, b)


@pytest.mark.parametrize("jobs", [1, 2, 3, 8])
def test_pool_map_keeps_task_order(jobs):
    numerators, denominators = [7, 8, 9, 10, 11], [2, 3, 4, 5, 6]
    expected = [divmod(a, b) for a, b in zip(numerators, denominators)]
    assert cm._pool_map(_slow_divmod, jobs, numerators, iter(denominators)) == expected
    assert cm._pool_map(_slow_divmod, jobs, [], []) == []


def _pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


@pytest.mark.parametrize(
    "jobs, tasks, workers", [(1, 5, None), (4, 1, None), (2, 5, 2), (500, 3, 3)]
)
def test_pool_map_caps_workers_at_the_task_count(jobs, tasks, workers):
    pids = set(cm._pool_map(_pid_after, jobs, [0.05] * tasks))
    if workers is None:  # one worker: fn runs in this process, nothing is forked
        assert pids == {os.getpid()}
    else:
        assert 1 <= len(pids) <= workers


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_spread_worker_starts_each_worker_on_the_next_cpu(monkeypatch):
    calls = []
    monkeypatch.setattr(cm.os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, cpus)))
    for n in range(3):
        cm._start_on(n, [2, 5])
    cm._start_on(0, [2])  # one CPU: nothing to spread over
    assert calls == [
        (0, {2}), (0, [2, 5]), (0, {5}), (0, [2, 5]), (0, {2}), (0, [2, 5])
    ]


def _open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_after(seconds, message):
    time.sleep(seconds)
    raise ValueError(message)


@pytest.mark.parametrize("jobs", [2, 3])
def test_pool_map_raises_the_lowest_failed_task_and_leaves_no_child(jobs):
    cm._pool_map(abs, jobs, [1, 2, 3])  # the first call makes the shared counter's file
    fds = _open_fds()
    # in the second case the tasks after the first fail before it does
    for fn, *args in [(divmod, [4, 1, 2], [2, 0, 0]), (_fail_after, [0.2, 0, 0], "abc")]:
        with pytest.raises(Exception) as in_process:
            cm._pool_map(fn, 1, *args)
        with pytest.raises(type(in_process.value)) as pooled:
            cm._pool_map(fn, jobs, *args)
        assert str(pooled.value) == str(in_process.value)
        _assert_no_child_left()
    assert _open_fds() == fds


def _exit_in_a_child(caller, seconds):
    if os.getpid() != caller:
        os._exit(3)
    time.sleep(seconds)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="tasks run in this process without fork")
def test_pool_map_names_the_status_of_a_worker_that_died():
    cm._pool_map(abs, 2, [1, 2])
    fds = _open_fds()
    start = time.perf_counter()
    # the caller alone would take 0.3 s, so the child takes a task and exits
    with pytest.raises(RuntimeError, match=r"exited with status 3\b"):
        cm._pool_map(_exit_in_a_child, 2, repeat(os.getpid()), [0.05] * 6)
    assert time.perf_counter() - start < 10
    _assert_no_child_left()
    assert _open_fds() == fds


def _sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def test_pool_map_hands_out_tasks_one_at_a_time():
    start = time.perf_counter()
    assert cm._pool_map(_sleep_for, 2, [0.3, 0.01] * 3) == [0.3, 0.01] * 3
    # fixed stripes would give one worker all three long tasks: 0.9 s
    assert time.perf_counter() - start < 0.8


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity and two CPUs",
)
def test_pool_map_leaves_workers_every_cpu():
    cpus = sorted(os.sched_getaffinity(0))
    masks = cm._pool_map(_affinity_after, 2, [0.05, 0.05, 0.05, 0.05])
    assert masks == [cpus] * 4


def _affinity_after(seconds):
    time.sleep(seconds)
    return sorted(os.sched_getaffinity(0))


def test_run_referencing_unknown_video_rejected(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    with pytest.raises(CarcinoError):
        evaluate_cohort(cohort, [EvalRun("bad", ("nope",))])


def test_report_text_rendering(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    report = evaluate_cohort(cohort, independent_runs(cohort))
    text = render_report_text(report)
    assert "AS Involvement Average" in text
    assert "Stomach, Spleen, Lesser Omentum" in text
    assert "ItS < 8" in text and "ItS >= 8" in text and "ItS Average" in text
    assert "FS RMSE" in text
    assert "Average for anatomical structures" in text
    assert "Peritoneal Carcinomatosis" in text


def test_runs_from_folds_validates_coverage(small_cohort_index):
    cohort = load_cohort(small_cohort_index)
    folds = stratified_kfold(cohort, k=2, seed=0)
    partial = FoldAssignment(
        k=2,
        seed=0,
        assignment={k: v for k, v in list(folds.assignment.items())[:-1]},
    )
    with pytest.raises(CarcinoError):
        runs_from_folds(cohort, partial)
    extra = FoldAssignment(k=2, seed=0, assignment={**folds.assignment, "ghost": 0})
    with pytest.raises(CarcinoError, match=r"names unknown video\(s\): \['ghost'\]"):
        runs_from_folds(cohort, extra)


def test_runs_from_folds_names_a_few_empty_folds_of_a_huge_k(small_cohort_index):
    """The empty folds used to be enumerated one by one: k = 10**6 took
    0.4 s and gave a 7.9 MB message."""
    cohort = load_cohort(small_cohort_index)
    ids = [v.video_id for v in cohort.videos]
    assignment = {vid: 2 * (i % 2) for i, vid in enumerate(ids)}  # folds 0 and 2
    with pytest.raises(CarcinoError) as info:
        runs_from_folds(cohort, FoldAssignment(k=10**6, seed=0, assignment=assignment))
    message = str(info.value)
    assert len(message) < 200
    assert message == (
        f"fold assignment leaves fold(s) [1, 3, 4, 5, 6] and {10**6 - 7} more "
        f"of {10**6} without a video"
    )


@pytest.mark.parametrize("k, index", [(4, 9), (4, 4), (4, -1), (0, 0)])
def test_fold_file_rejects_fold_index_outside_range(k, index):
    data = {"k": k, "seed": 0, "assignment": {"v000": 0, "v001": index}}
    with pytest.raises(CarcinoError):
        FoldAssignment.from_dict(data)


@pytest.mark.parametrize(
    "assignment",
    [{"a": 0, "b": 1, "c": 5}, {"a": 0, "b": 1, "c": -1}, {"a": 0, "b": 1, "c": True},
     {1: -1, "a": -1}, {1: 0, "a": 0}],
    ids=["past-k", "negative", "bool", "int-key-outside", "int-key"],
)
def test_fold_assignment_checks_itself(assignment):
    """Built in memory, a fold outside [0, k) used to drop its video from
    every run, and a bool fold filed it under fold int(fold); a video id
    that is not a string used to pass, or fail sorting with a TypeError."""
    with pytest.raises(CarcinoError, match="outside|must map video ids"):
        FoldAssignment(k=2, seed=0, assignment=assignment)


@pytest.mark.parametrize(
    "data",
    [
        {"k": "x", "seed": 0, "assignment": {}},
        {"k": 2.0, "seed": 0, "assignment": {}},
        {"k": True, "seed": 0, "assignment": {}},
        {"k": 2, "seed": None, "assignment": {}},
        {"k": 2, "seed": 0, "assignment": []},
        {"k": 2, "seed": 0, "assignment": {"v000": "1"}},
    ],
)
def test_fold_file_rejects_wrong_types(data):
    with pytest.raises(CarcinoError):
        FoldAssignment.from_dict(data)


def test_ground_truth_score_follows_points_per_station(small_cohort_index):
    """The stored ground truth is written at 2 points per station; an
    evaluation at 3 points must score the truth at 3 points too."""
    cohort = load_cohort(small_cohort_index)
    constants = ScoringConstants(points_per_positive_station=3)
    folds = stratified_kfold(cohort, k=2, seed=0)
    for predictor in ("pipeline", "oracle"):
        report = evaluate_cohort(
            cohort, folds, constants, predictor=predictor, compute_dice=False
        )
        assert report["summary"]["fs_rmse"]["mean"] == 0.0
        assert report["summary"]["its_average"]["f1"]["mean"] == 1.0
        for entry in report["runs"]:
            for row in entry["videos"].values():
                assert row["gt_fs"] == 3 * sum(row["stations"])
                assert row["gt_fs"] == row["fs"] and row["gt_its"] == row["its"]
