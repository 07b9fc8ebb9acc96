"""Cohort loading, stratified video-level splitting, and evaluation.

A cohort is a directory with an index file (JSON list of video ids and
manifest paths) plus one manifest per video. Splitting is done at the
video level only, so frames from one case never straddle folds. The
evaluation runner scores every video, compares against the clinical
ground truth at all levels (station involvement, total score,
indication, and optionally frame-level Dice and ROI balanced accuracy
when ground-truth rasters exist), and aggregates mean/std across runs
(folds in cross-validation mode; independent-test mode is one run over
the whole cohort).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import traceback
from dataclasses import asdict, dataclass
from itertools import groupby, repeat
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from . import maskio, metrics, pipeline
from .core import (
    Indication,
    ORGAN_SLUGS,
    ScoringConstants,
    STATION_SLUGS,
    _is_int,
    _read_json,
    _rng,
    compute_fs,
    compute_its,
)
from .errors import CarcinoError
from .maskio import VideoGroundTruth, VideoManifest, canonical_json
from .metrics import ConfusionCounts
from .pipeline import PC_DICE_KEY

__all__ = [
    "Cohort",
    "CohortVideo",
    "FoldAssignment",
    "EvalRun",
    "load_cohort",
    "save_cohort_index",
    "stratified_kfold",
    "load_folds",
    "runs_from_folds",
    "independent_runs",
    "evaluate_cohort",
    "render_report_text",
]

ORGAN_AVG_DICE_KEY = "anatomical_structures_average"
_PRF = ("precision", "recall", "f1")
REPORT_SCHEMA = "carcino.report.v1"

# run-entry key -> run-entry path of each value the summary takes the
# mean/std of, nested as the summary is; a run whose every video failed
# holds None under each key
_RUN_METRICS = {
    "stations": {slug: {m: ("stations", slug, m) for m in _PRF} for slug in STATION_SLUGS},
    "stations_average": {m: ("stations_average", m) for m in _PRF},
    "its": {ind.value: {m: ("its", ind.value, m) for m in _PRF} for ind in Indication},
    "its_average": {m: ("its_average", m) for m in _PRF},
    "fs_rmse": ("fs_rmse",),
    "fs_rmse_normalized": ("fs_rmse_normalized",),
    "dice": {key: ("dice", key) for key in (*ORGAN_SLUGS, ORGAN_AVG_DICE_KEY, PC_DICE_KEY)},
    "roi_balanced_accuracy": ("roi_balanced_accuracy",),
}

# display label of each row render_report_text prints, by _RUN_METRICS key;
# an ItS label is formatted with the cutoff in use
_ROW_LABELS = {
    "stations": dict(zip(STATION_SLUGS, (
        "Diaphragm", "Liver", "Stomach, Spleen, Lesser Omentum", "Greater Omentum",
        "Parietal peritoneum", "Bowel",
    ))),
    "stations_average": "AS Involvement Average",
    "its": {
        Indication.SURGERY_INDICATED.value: "ItS < {cutoff}",
        Indication.SURGERY_CONTRAINDICATED.value: "ItS >= {cutoff}",
    },
    "its_average": "ItS Average",
    "dice": {
        **dict(zip(ORGAN_SLUGS, (
            "Diaphragm", "Liver", "Stomach", "Spleen", "Lesser Omentum", "Greater Omentum",
            "Parietal peritoneum", "Bowel",
        ))),
        ORGAN_AVG_DICE_KEY: "Average for anatomical structures",
        PC_DICE_KEY: "Peritoneal Carcinomatosis",
    },
}


@dataclass(frozen=True)
class CohortVideo:
    """One video of a cohort: its id, its manifest's path and the
    manifest as load_cohort parsed it, whose frames evaluation scores."""

    video_id: str
    manifest_path: Path
    manifest: VideoManifest

    @property
    def ground_truth(self) -> VideoGroundTruth | None:
        return self.manifest.ground_truth


@dataclass(frozen=True)
class Cohort:
    name: str
    videos: tuple[CohortVideo, ...]

    def __post_init__(self) -> None:
        ids = [v.video_id for v in self.videos]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise CarcinoError(f"duplicate video id(s) in cohort: {dupes}")


def load_cohort(index_path: str | Path) -> Cohort:
    """Load a cohort index and parse every manifest it references.

    Manifest paths in the index are relative to the index file's
    directory. Ground-truth consistency is validated per manifest.
    """
    index_path = Path(index_path)
    data = _read_json(index_path)
    if not isinstance(data, dict) or not isinstance(data.get("videos"), list):
        raise CarcinoError(f"{index_path}: expected an object with a 'videos' list")
    # an unnamed cohort takes the name of the index's directory; the path is
    # made absolute and normalised first, so that a bare "index.json" or a
    # "../index.json" names a directory, not "" or ".."
    name = data.get("name", Path(os.path.abspath(index_path)).parent.name)
    if not isinstance(name, str):
        raise CarcinoError(f"{index_path}: 'name' must be a string, got {name!r}")
    if "name" in data:  # a directory's name is taken as the OS gives it
        maskio._encoded(name, f"{index_path}: 'name'")
    videos = []
    for i, entry in enumerate(data["videos"]):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("video_id"), str)
            and isinstance(entry.get("manifest"), str)
        ):
            raise CarcinoError(
                f"{index_path}: videos[{i}] needs string 'video_id' and 'manifest'"
            )
        maskio._check_path(entry["manifest"], f"{index_path}: videos[{i}] 'manifest'")
        manifest_path = index_path.parent / entry["manifest"]
        manifest = maskio.load_manifest(manifest_path)
        if manifest.video_id != entry["video_id"]:
            raise CarcinoError(
                f"{index_path}: videos[{i}] id {entry['video_id']!r} does not match "
                f"manifest id {manifest.video_id!r}"
            )
        videos.append(
            CohortVideo(
                video_id=entry["video_id"],
                manifest_path=manifest_path,
                manifest=manifest,
            )
        )
    return Cohort(name=name, videos=tuple(videos))


def save_cohort_index(name: str, entries: Sequence[tuple[str, str]], path: str | Path) -> None:
    """Write a cohort index; entries are (video_id, manifest path
    relative to the index directory)."""
    data = {
        "name": name,
        "videos": [{"video_id": vid, "manifest": rel} for vid, rel in entries],
    }
    Path(path).write_text(canonical_json(data), encoding="utf-8")


# --- stratified splitting -------------------------------------------------


@dataclass(frozen=True)
class FoldAssignment:
    k: int
    seed: int
    assignment: dict[str, int]  # video_id -> fold index in [0, k)

    def __post_init__(self) -> None:
        k, assignment = self.k, self.assignment
        if not _is_int(k) or not _is_int(self.seed):
            raise CarcinoError("fold file: 'k' and 'seed' must be integers")
        if k < 1:
            raise CarcinoError(f"fold count must be >= 1, got {k}")
        if not (
            isinstance(assignment, dict)
            and all(isinstance(vid, str) and _is_int(f) for vid, f in assignment.items())
        ):
            raise CarcinoError("fold file: 'assignment' must map video ids to integer folds")
        outside = sorted(vid for vid, f in assignment.items() if not 0 <= f < k)
        if outside:
            raise CarcinoError(f"fold index outside [0, {k}) for video(s): {outside}")

    def to_dict(self) -> dict:
        return {"k": self.k, "seed": self.seed, "assignment": dict(sorted(self.assignment.items()))}

    @classmethod
    def from_dict(cls, data: dict) -> "FoldAssignment":
        if not isinstance(data, dict) or not {"k", "seed", "assignment"} <= set(data):
            raise CarcinoError("fold file must contain 'k', 'seed' and 'assignment'")
        assignment = data["assignment"]
        if isinstance(assignment, dict):  # __post_init__ rejects any other value
            assignment = {str(vid): f for vid, f in assignment.items()}
        return cls(k=data["k"], seed=data["seed"], assignment=assignment)


def stratified_kfold(cohort: Cohort, k: int, seed: int = 0) -> FoldAssignment:
    """Split a cohort into k folds with similar score distributions.

    Videos are sorted by ground-truth score (ties broken by id for
    determinism), shuffled only within equal-score groups using the
    seed, then dealt snake-wise (0..k-1, k-1..0, ...) so every fold
    receives a balanced sweep of the score range. Deterministic for a
    fixed (cohort, k, seed).
    """
    if k < 1:
        raise CarcinoError(f"fold count must be >= 1, got {k}")
    if len(cohort.videos) < k:
        raise CarcinoError(
            f"cohort has {len(cohort.videos)} videos, cannot make {k} folds"
        )
    for v in cohort.videos:
        if v.ground_truth is None:
            raise CarcinoError(
                f"video {v.video_id!r} has no ground truth; cannot stratify"
            )
    ordered = sorted(cohort.videos, key=lambda v: (v.ground_truth.fs, v.video_id))
    rng = _rng(seed, 0xF0)
    dealt: list[CohortVideo] = []
    for _, group in groupby(ordered, key=lambda v: v.ground_truth.fs):
        group = list(group)
        dealt += [group[i] for i in rng.permutation(len(group))]
    assignment: dict[str, int] = {}
    for i, video in enumerate(dealt):
        cycle, pos = divmod(i, k)
        fold = pos if cycle % 2 == 0 else k - 1 - pos
        assignment[video.video_id] = fold
    return FoldAssignment(k=k, seed=seed, assignment=assignment)


def load_folds(path: str | Path) -> FoldAssignment:
    return FoldAssignment.from_dict(_read_json(path))


# --- evaluation -----------------------------------------------------------


@dataclass(frozen=True)
class EvalRun:
    """One evaluation run: a label and the video ids it covers."""

    label: str
    video_ids: tuple[str, ...]


def runs_from_folds(cohort: Cohort, folds: FoldAssignment) -> list[EvalRun]:
    """One run per fold; each fold's videos serve as that run's test set."""
    cohort_ids = {v.video_id for v in cohort.videos}
    missing = cohort_ids - set(folds.assignment)
    if missing:
        raise CarcinoError(f"fold assignment misses video(s): {sorted(missing)}")
    unknown = set(folds.assignment) - cohort_ids
    if unknown:
        raise CarcinoError(f"fold assignment names unknown video(s): {sorted(unknown)}")
    used = set(folds.assignment.values())
    if len(used) < folds.k:  # k may be huge: list the first few empty folds only
        empty = [f for f in range(min(folds.k, len(used) + 5)) if f not in used][:5]
        more = folds.k - len(used) - len(empty)
        raise CarcinoError(
            f"fold assignment leaves fold(s) {empty}{f' and {more} more' if more else ''} "
            f"of {folds.k} without a video"
        )
    fold_of = folds.assignment
    return [
        EvalRun(f"fold{f}", tuple(v.video_id for v in cohort.videos if fold_of[v.video_id] == f))
        for f in range(folds.k)
    ]


def independent_runs(cohort: Cohort) -> list[EvalRun]:
    """Independent-test mode: one run, labelled model0, over the full
    cohort."""
    return [EvalRun(label="model0", video_ids=tuple(v.video_id for v in cohort.videos))]


def _pool_map(fn: Callable, jobs: int, *iterables: Iterable) -> list:
    """[fn(*task) for task in zip(*iterables)], computed by
    min(jobs, task count) worker processes; with one worker, or where the
    platform has no os.fork, fn runs in this process. Results are in task
    order, and a failing task raises the exception of the lowest-index
    task that failed, as the list comprehension would.

    The calling process is the last worker; the others are forked from
    it and inherit the tasks, so no task is pickled (the caller must run
    no other thread). Each worker takes the next task index from a shared
    counter until none is left, so uneven tasks stay balanced. A child
    sends back one pickled message, its (index, result) pairs and the
    first exception it met, and exits; one that exits without sending it
    raises RuntimeError. Where the platform can set CPU affinity, child n
    starts on the n-th CPU this process may use (see _start_on)."""
    tasks = list(zip(*iterables))
    workers = min(jobs, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(*task) for task in tasks]
    counter = multiprocessing.Value("i", 0)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    reaped: set[int] = set()
    try:
        for n in range(workers - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the child leaves this branch only through os._exit
                status = 1
                try:
                    _start_on(n, cpus)
                    done, error = _work(fn, tasks, counter)
                    if error and hasattr(error[1], "add_note"):  # Python 3.11+
                        # the traceback does not pickle: send it as text
                        tb = "".join(traceback.format_tb(error[1].__traceback__))
                        error[1].add_note(f"raised in worker process {os.getpid()}:\n{tb}")
                    with open(write_end, "wb") as pipe:
                        pickle.dump((done, error), pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                except Exception:
                    traceback.print_exc()
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, read_end))
        done, error = _work(fn, tasks, counter)
        errors = [error] if error else []
        for pid, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                message = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if status != 0 or not message:
                how = f"status {status}" if status >= 0 else f"signal {-status}"
                raise RuntimeError(f"worker process {pid} exited with {how} before sending results")
            child_done, child_error = pickle.loads(message)
            done += child_done
            if child_error:
                errors.append(child_error)
    finally:
        for pid, read_end in children:
            os.close(read_end)
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    results = [None] * len(tasks)
    for index, result in done:
        results[index] = result
    return results


def _work(fn: Callable, tasks: list[tuple], counter) -> tuple[list, tuple | None]:
    """Run tasks[i] for each index i this worker takes from the shared
    counter. Returns the (index, result) pairs and, if a task raised, its
    (index, exception); that task is the worker's last, and it moves the
    counter past the end so the other workers stop too. Every lower index
    was already taken, so the lowest failure is still found."""
    done = []
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(tasks):
            return done, None
        try:
            done.append((index, fn(*tasks[index])))
        except Exception as exc:
            with counter.get_lock():
                counter.value = len(tasks)
            return done, (index, exc)


def _start_on(n: int, cpus: list[int]) -> None:
    """Move this worker onto cpus[n % len(cpus)], then allow it every CPU
    in cpus again. Workers forked in a burst can otherwise all land on
    one CPU and share it for a whole short call while another CPU idles
    (seen on 2 vCPUs: evaluate --jobs 2 took twice as long in some calls
    as in others); the kernel may still move them later."""
    if len(cpus) < 2:
        return
    try:
        os.sched_setaffinity(0, {cpus[n % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:  # a CPU went offline since the call began; placement is only a hint
        pass


class _Scored(NamedTuple):
    """One graded video: its station flags, or the error that failed it,
    plus its Dice lists when evaluation asks for them. Its score and
    indication follow from the flags and the constants in use. Workers
    return it: the per-frame nodules stay behind, so no pixel arrays
    cross a process pool."""

    stations: tuple[bool, ...] | None
    error: str | None = None
    dice: dict[str, list] | None = None


def _assess_video(
    manifest_path: str,
    constants: ScoringConstants,
    want_dice: bool,
    video_id: str,
    frames: tuple[maskio.FrameRecord, ...],
) -> _Scored:
    """pipeline.score_frames over the frames of one video, as parsed from
    the manifest at manifest_path, their rasters read from the manifest's
    directory. Any per-video error is recorded, not raised, so one broken
    video cannot sink a run."""
    load = maskio.frame_loader(Path(manifest_path).parent)
    try:
        video, dice = pipeline.score_frames(video_id, frames, load, constants, want_dice)
    except (CarcinoError, OSError) as exc:
        # all-or-nothing per video: a broken raster voids its frame metrics
        return _Scored(None, str(exc))
    return _Scored(video.station_positive, None, dice)


def _relevance_counts(frames: Iterable, constants: ScoringConstants) -> ConfusionCounts:
    """Relevance (ROI) confusion counts of one video's frame records, over
    those with a gt_roi flag; they need no raster."""
    pairs = ((pipeline._is_relevant(record, constants), record.gt_roi) for record in frames)
    return metrics._confusion(pair for pair in pairs if pair[1] is not None)


def _aggregate_dice(per_video: list[dict[str, list] | None], average: str) -> dict | None:
    """Combine per-video, per-frame Dice lists into run-level values.

    average="frame" pools every frame in the run; average="video" takes
    a per-video mean first. Undefined frames (both masks empty) are
    excluded; a label with no defined frame is undefined for the run.
    """
    collected = [d for d in per_video if d is not None]
    keys = list(ORGAN_SLUGS) + [PC_DICE_KEY]
    out: dict[str, float | None] = {}
    for key in keys:
        if average == "frame":
            pooled = [v for d in collected for v in d[key]]
            out[key] = metrics.macro_average(pooled)
        else:
            per_video_means = [metrics.macro_average(d[key]) for d in collected]
            out[key] = metrics.macro_average(per_video_means)
    if all(out[k] is None for k in keys):
        return None
    out[ORGAN_AVG_DICE_KEY] = metrics.macro_average([out[slug] for slug in ORGAN_SLUGS])
    return out


def _prf_table(table: str, counts: dict[str, ConfusionCounts]) -> dict:
    """The run-entry items of one PRF table: under table, each row key's
    precision/recall/F1 and confusion counts; under table + "_average",
    the macro average of each of the three over the rows."""
    rows = {
        key: {**dict(zip(_PRF, metrics.precision_recall_f1(c))), **asdict(c)}
        for key, c in counts.items()
    }
    average = {m: metrics.macro_average([row[m] for row in rows.values()]) for m in _PRF}
    return {table: rows, f"{table}_average": average}


def _evaluate_run(
    run: EvalRun,
    scored: dict[str, _Scored],
    ground_truth: dict[str, VideoGroundTruth],
    constants: ScoringConstants,
    dice_average: str,
    roi: dict[str, ConfusionCounts] | None = None,
) -> dict:
    """The entry of one run; roi maps each video id to its relevance counts."""
    ok_ids = [vid for vid in run.video_ids if scored[vid].error is None]
    failed = {vid: scored[vid].error for vid in run.video_ids if scored[vid].error is not None}
    entry: dict = {
        "label": run.label,
        "n_videos": len(run.video_ids),
        "n_failed": len(failed),
        "failed": failed,
        "error": None,
    }
    if not ok_ids:
        return {**entry, "error": "all videos failed", **dict.fromkeys((*_RUN_METRICS, "videos"))}

    preds = [scored[vid].stations for vid in ok_ids]
    gts = [ground_truth[vid].stations for vid in ok_ids]
    station_counts = metrics.station_confusions(preds, gts)
    entry.update(_prf_table("stations", dict(zip(STATION_SLUGS, station_counts))))

    # both scores and indications follow from the flags by the scoring rules in use
    gt_fs = [compute_fs(flags, constants) for flags in gts]
    gt_its = [compute_its(fs, constants) for fs in gt_fs]
    pred_fs = [compute_fs(flags, constants) for flags in preds]
    pred_its = [compute_its(fs, constants) for fs in pred_fs]
    rmse = metrics.fs_rmse(pred_fs, gt_fs)
    entry["fs_rmse"] = rmse
    entry["fs_rmse_normalized"] = metrics.normalized_rmse(rmse, constants)

    its_counts = metrics.its_confusions(pred_its, gt_its)
    entry.update(_prf_table("its", {ind.value: c for ind, c in its_counts.items()}))

    entry["dice"] = _aggregate_dice([scored[vid].dice for vid in ok_ids], dice_average)

    relevance = [roi[vid] for vid in ok_ids] if roi else []
    entry["roi_balanced_accuracy"] = metrics.balanced_accuracy(sum(relevance, ConfusionCounts()))

    entry["videos"] = {
        vid: {
            "fs": fs,
            "its": its.value,
            "stations": list(flags),
            "gt_fs": gt,
            "gt_its": gt_ind.value,
        }
        for vid, flags, fs, its, gt, gt_ind in zip(ok_ids, preds, pred_fs, pred_its, gt_fs, gt_its)
    }
    return entry


def _summary_value(values: list[float | None]) -> dict | None:
    summary = metrics.summarize_runs(values)
    return None if summary is None else summary.to_dict()


def _collect(run_entries: list[dict], *path: str) -> list:
    """The value at the key path in each run entry, or None where the path
    breaks off (a failed run holds None in place of its metrics)."""
    values = []
    for node in run_entries:
        for key in path:
            if node is None:
                break
            node = node.get(key)
        values.append(node)
    return values


def _nested_map(fn: Callable, table: dict) -> dict:
    """table with fn applied to every leaf that is not a dict."""
    return {
        key: _nested_map(fn, leaf) if isinstance(leaf, dict) else fn(leaf)
        for key, leaf in table.items()
    }


def _summarize_report(run_entries: list[dict]) -> dict:
    """Mean/std across runs of every value _RUN_METRICS names, nested as
    there; failed runs contribute undefined values and show up in the
    excluded counts. The Dice table is None where no run has a defined
    Dice value. Also the run count and the failed videos of all runs."""
    summary = _nested_map(lambda path: _summary_value(_collect(run_entries, *path)), _RUN_METRICS)
    if all(value is None for value in summary["dice"].values()):
        summary["dice"] = None
    return {
        "n_runs": len(run_entries),
        **summary,
        "failed_videos_total": sum(entry["n_failed"] for entry in run_entries),
    }


def _require_a_scored_run(run_entries: list[dict]) -> None:
    """CarcinoError unless some run scored a video."""
    if all(entry["error"] is not None for entry in run_entries):
        raise CarcinoError("every run failed: no video could be scored")


def evaluate_cohort(
    cohort: Cohort,
    runs: FoldAssignment | Sequence[EvalRun],
    constants: ScoringConstants | None = None,
    *,
    predictor: str = "pipeline",
    jobs: int = 1,
    dice_average: str = "frame",
    compute_dice: bool = True,
    compute_roi: bool = True,
    mode: str | None = None,
) -> dict:
    """Evaluate a cohort and return the report as a plain dict.

    runs is either a FoldAssignment (cross-validation: each fold is one
    run's test set) or an explicit run list (e.g. independent_runs).
    predictor is "pipeline" (score each video from its rasters) or
    "oracle" (feed the ground truth back, for metric plumbing checks).
    Per-video failures are recorded in the report; a run only fails when
    all of its videos do, and evaluation only fails when every run does.
    Deterministic for fixed inputs regardless of the jobs count.
    """
    constants = constants or ScoringConstants()
    if dice_average not in ("frame", "video"):
        raise CarcinoError(f"dice_average must be 'frame' or 'video', got {dice_average!r}")
    if predictor not in ("pipeline", "oracle"):
        raise CarcinoError(f"unknown predictor {predictor!r}")
    if isinstance(runs, FoldAssignment):
        run_list = runs_from_folds(cohort, runs)
        mode = mode or "cross_validation"
    else:
        run_list = list(runs)
        mode = mode or "custom"
    if not run_list:
        raise CarcinoError("no runs to evaluate")

    by_id = {v.video_id: v for v in cohort.videos}
    seen = set()
    for run in run_list:
        if not run.video_ids:
            raise CarcinoError(f"run {run.label!r} has no videos")
        for vid in run.video_ids:
            if vid not in by_id:
                raise CarcinoError(f"run {run.label!r} references unknown video {vid!r}")
            seen.add(vid)
    # prediction order, and the video a missing ground truth names, follow
    # the cohort ordering, not run order
    unique_ids = [v.video_id for v in cohort.videos if v.video_id in seen]
    for vid in unique_ids:
        if by_id[vid].ground_truth is None:
            raise CarcinoError(f"video {vid!r} has no ground truth")

    ground_truth = {vid: by_id[vid].ground_truth for vid in unique_ids}
    roi = None
    if predictor == "oracle":
        scored = {vid: _Scored(ground_truth[vid].stations) for vid in unique_ids}
    else:
        assessed = _pool_map(
            _assess_video,
            jobs,
            [str(by_id[vid].manifest_path) for vid in unique_ids],
            repeat(constants),
            repeat(compute_dice),
            unique_ids,
            [by_id[vid].manifest.frames for vid in unique_ids],
        )
        scored = dict(zip(unique_ids, assessed))
        if compute_roi:
            roi = {v: _relevance_counts(by_id[v].manifest.frames, constants) for v in unique_ids}

    run_entries = [
        _evaluate_run(run, scored, ground_truth, constants, dice_average, roi)
        for run in run_list
    ]
    _require_a_scored_run(run_entries)

    return {
        "schema": REPORT_SCHEMA,
        "kind": "cohort_evaluation",
        "cohort": cohort.name,
        "n_videos": len(cohort.videos),
        "mode": mode,
        "predictor": predictor,
        "dice_average": dice_average,
        "constants": constants.to_dict(),
        "runs": run_entries,
        "summary": _summarize_report(run_entries),
    }


# --- text rendering --------------------------------------------------------


def _fmt(summary: dict | None, scale: float = 1, digits: int = 3) -> str:
    """A summary's mean and std, each times scale, to digits decimals."""
    if summary is None:
        return "n/a"
    return f"{scale * summary['mean']:.{digits}f} ± {scale * summary['std']:.{digits}f}"


def render_report_text(report: dict) -> str:
    """Aligned plain-text tables: station involvement and indication
    rows with precision/recall/F1, score error lines, and the Dice table
    when frame-level ground truth was available. The rows of each table
    are those of _RUN_METRICS, in its order, labelled by _ROW_LABELS."""
    summary = report["summary"]
    constants = report.get("constants", {})
    cutoff = constants.get("its_cutoff", 8)
    # an unnamed cohort is named after its directory, as the OS gives it:
    # U+DC80-U+DCFF stand for file-name bytes, shown as \x escapes
    name = os.fsencode(report["cohort"]).decode("utf-8", "backslashreplace")
    lines = [
        f"Cohort evaluation: {name} "
        f"({report['n_videos']} videos, {summary['n_runs']} runs, {report['mode']}, "
        f"predictor={report['predictor']})",
        "",
    ]
    name_w = 34
    col_w = 15
    header = (
        f"{'AS Involvement':<{name_w}}"
        f"{'Precision':>{col_w}}{'Recall':>{col_w}}{'F1-score':>{col_w}}"
    )

    def prf_row(label: str, row: dict) -> str:
        label = label.format(cutoff=cutoff)
        return f"{label:<{name_w}}" + "".join(f"{_fmt(row[m], 100, 1):>{col_w}}" for m in _PRF)

    rule = "-" * len(header)
    lines += [header, rule]
    for table, end in (("stations", rule), ("its", "")):
        labels, rows = _ROW_LABELS[table], summary[table]
        lines += [prf_row(labels[key], rows[key]) for key in _RUN_METRICS[table]]
        average = f"{table}_average"
        lines += [prf_row(_ROW_LABELS[average], summary[average]), end]
    lines.append(f"FS RMSE (points):     {_fmt(summary['fs_rmse'])}")
    lines.append(f"FS RMSE (normalized): {_fmt(summary['fs_rmse_normalized'])}")
    if summary.get("dice") is not None:
        lines.append("")
        lines.append(f"{'Segmentation Dice':<{name_w}}{'Dice (%)':>{col_w}}")
        lines.append("-" * (name_w + col_w))
        labels, dice_summary = _ROW_LABELS["dice"], summary["dice"]
        lines += [
            f"{labels[key]:<{name_w}}{_fmt(dice_summary[key], 100, 1):>{col_w}}"
            for key in _RUN_METRICS["dice"]
        ]
    if summary.get("roi_balanced_accuracy") is not None:
        lines.append("")
        lines.append(
            f"ROI balanced accuracy (%): {_fmt(summary['roi_balanced_accuracy'], 100, 1)}"
        )
    lines.append("")
    lines.append(f"Videos failing to score: {summary.get('failed_videos_total', 0)}")
    lines.append("Per-run values:")
    for entry in report["runs"]:
        if entry["error"] is not None:
            lines.append(f"  {entry['label']}: FAILED ({entry['error']})")
            continue
        f1 = entry["stations_average"]["f1"]
        its_f1 = entry["its_average"]["f1"]
        lines.append(
            f"  {entry['label']}: videos={entry['n_videos']} failed={entry['n_failed']} "
            f"rmse={entry['fs_rmse']:.3f} "
            f"stationsF1={'n/a' if f1 is None else format(f1, '.3f')} "
            f"itsF1={'n/a' if its_f1 is None else format(its_f1, '.3f')}"
        )
    return "\n".join(lines) + "\n"
