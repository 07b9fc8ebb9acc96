"""Video scoring pipeline.

The chain per video: keep frames the relevance (ROI) score accepts,
threshold the carcinomatosis confidence map, split it into nodules by
connected components, assign every nodule to the organ it overlaps most
(organ confidences are thresholded at nodule pixels; only organ Dice
needs full organ masks), mark the organ's station positive when a nodule
sits on it, OR the station vectors over all frames, and convert the
positive-station count into the total score and the surgery indication.

score_frames runs that chain once per video for every caller: score_video
over a manifest, cohort evaluation over a manifest with frame-level Dice
and ROI counts, and the Monte Carlo sweep over generated frames.

All thresholds use >= semantics. Thresholds are compared at float32
precision, matching the raster payload, so a pixel stored as the
nearest float32 to the threshold value is included.

Everything here is pure per frame; frames may be processed on any
number of workers and the video-level OR is order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from . import maskio, metrics
from .core import ORGAN_SLUGS, Indication, OrganClass, ScoringConstants, Station, station_of
from .errors import (
    ChannelCountMismatchError,
    DimensionMismatchError,
    NoAssessableFramesError,
)
from .maskio import ConfidenceFrame, VideoManifest
from .metrics import ConfusionCounts

__all__ = [
    "Nodule",
    "FrameAssessment",
    "VideoAssessment",
    "threshold_organ_masks",
    "threshold_pc_mask",
    "connected_components",
    "assign_nodules",
    "classify_frame",
    "aggregate_video",
    "compute_fs",
    "compute_its",
    "score_frames",
    "score_video",
]

_ORGANS = tuple(OrganClass)
PC_DICE_KEY = "peritoneal_carcinomatosis"  # Dice list of the carcinomatosis mask


@dataclass(eq=False)
class Nodule:
    """One connected component of the thresholded carcinomatosis mask.

    pixels is an (n, 2) int32 array of (row, col) coordinates in
    row-major order; the nodules of one frame may share one underlying
    buffer. Assignment fields are filled by assign_nodules.
    """

    id: int
    pixels: np.ndarray
    assigned_organ: OrganClass | None = None
    overlap_counts: np.ndarray | None = None  # (8,) pixel overlap per organ

    @property
    def size(self) -> int:
        return int(self.pixels.shape[0])


@dataclass(eq=False)
class FrameAssessment:
    frame_index: int
    time_s: float
    station_positive: tuple[bool, ...]
    nodules: list[Nodule] = field(default_factory=list)


@dataclass(eq=False)
class VideoAssessment:
    """Video-level result: station vector, total score, indication."""

    video_id: str
    station_positive: tuple[bool, ...]
    fs: int
    its: Indication
    frames_used: int
    frames: list[FrameAssessment] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "video_id": self.video_id,
            "station_positive": {
                s.slug: flag for s, flag in zip(Station, self.station_positive)
            },
            "fs": self.fs,
            "its": self.its.value,
            "frames_used": self.frames_used,
            "frames": [
                {
                    "frame_index": fa.frame_index,
                    "time_s": fa.time_s,
                    "stations_positive": [
                        s.slug for s, flag in zip(Station, fa.station_positive) if flag
                    ],
                    "nodules": [
                        {
                            "id": n.id,
                            "size": n.size,
                            "organ": n.assigned_organ.slug if n.assigned_organ is not None else None,
                        }
                        for n in fa.nodules
                    ],
                }
                for fa in self.frames
            ],
        }


def _organ_hits(organ_conf: np.ndarray, constants: ScoringConstants) -> np.ndarray:
    """The organ-threshold rule, for a whole frame or gathered pixels."""
    return organ_conf >= np.float32(constants.organ_confidence_threshold)


def threshold_organ_masks(frame: ConfidenceFrame, constants: ScoringConstants) -> np.ndarray:
    """Binary organ masks, one plane per organ channel: (8, H, W) bool."""
    return _organ_hits(frame.organ_conf, constants)


def threshold_pc_mask(frame: ConfidenceFrame, constants: ScoringConstants) -> np.ndarray:
    """Binary carcinomatosis mask: (H, W) bool."""
    return frame.pc_conf >= np.float32(constants.pc_confidence_threshold)


def _row_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, first column and end column (half-open) of every run of true
    pixels in a non-empty 2-D bool mask, in row-major order.

    A run starts on a true pixel whose left neighbour in its row is
    false and ends on one whose right neighbour is. The flat mask is
    ANDed with its negated neighbours, the pixels at the row edges are
    put back, and ``np.flatnonzero`` reads the starts and the ends.
    """
    width = mask.shape[1]
    flat = mask.ravel()
    first = flat.copy()
    first[1:] &= ~flat[:-1]
    first[::width] = flat[::width]
    last = flat.copy()
    last[:-1] &= ~flat[1:]
    last[width - 1 :: width] = flat[width - 1 :: width]
    run_first = np.flatnonzero(first)
    rows = run_first // width
    row_base = rows * width
    return rows, run_first - row_base, np.flatnonzero(last) - row_base + 1


def connected_components(mask: np.ndarray, connectivity: int = 8) -> list[Nodule]:
    """Partition the true pixels of a binary mask into maximal connected
    components (nodules).

    Two-pass labelling on row runs, after Wu, Otoo & Suzuki (2009), with
    every step an array operation. ``_row_runs`` yields the runs of all
    rows at once, in row-major order. A run touches the runs of the row
    above whose column span overlaps its own widened by one column
    (8-connectivity) or overlaps it (4-connectivity); because the runs
    of a row are sorted and disjoint, those runs form one contiguous
    range, found for every run by two ``np.searchsorted`` calls. The
    touching pairs are merged by repeated minimum hooking
    (``np.minimum.at``) and pointer jumping until every pair shares a
    label, so each run ends up labelled with the lowest run index of its
    component.

    Components are ordered by their first pixel in row-major order and
    ids are assigned in that order, which is the order of those lowest
    run indices. Each ``Nodule.pixels`` is an (n, 2) int32 array of
    (row, col) in row-major order, cut from one array of all pixels
    grouped by a stable sort on the run labels. Connectivity is 8
    (default, diagonal neighbours connect) or 4.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    if not mask.size:
        return []
    width = mask.shape[1]
    rows, starts, ends = _row_runs(mask)
    n_runs = rows.size
    if n_runs == 0:
        return []

    # touching runs of the row above: key = row * stride + col is sorted
    # for starts and for ends, and rows never interleave since stride > width
    stride = width + 1
    slack = 0 if connectivity == 8 else 1
    above = (rows - 1) * stride
    lo = np.searchsorted(rows * stride + ends, above + starts + slack, side="left")
    hi = np.searchsorted(rows * stride + starts, above + ends - slack, side="right")
    n_pairs = np.maximum(hi - lo, 0)
    cur = np.repeat(np.arange(n_runs), n_pairs)
    prev = np.arange(cur.size) - np.repeat(np.cumsum(n_pairs) - n_pairs - lo, n_pairs)

    # merge: hook each root onto the lowest root it touches, then jump
    # pointers until every run points straight at its root
    labels = np.arange(n_runs)
    while cur.size:
        lp = labels[prev]
        lc = labels[cur]
        open_ = lp != lc
        if not open_.any():
            break
        prev, cur, lp, lc = prev[open_], cur[open_], lp[open_], lc[open_]
        low = np.minimum(lp, lc)
        np.minimum.at(labels, lp, low)
        np.minimum.at(labels, lc, low)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped

    is_root = labels == np.arange(n_runs)
    component = (np.cumsum(is_root) - 1)[labels]
    order = np.argsort(component, kind="stable")
    lengths = (ends - starts)[order]
    run_offsets = np.cumsum(lengths) - lengths
    pixels = np.empty((int(lengths.sum()), 2), dtype=np.int32)
    pixels[:, 0] = np.repeat(rows[order], lengths)
    pixels[:, 1] = np.arange(pixels.shape[0]) - np.repeat(run_offsets - starts[order], lengths)
    sizes = np.bincount(component, weights=ends - starts).astype(np.int64)
    bounds = [0, *np.cumsum(sizes).tolist()]
    return [Nodule(id=i, pixels=pixels[bounds[i] : bounds[i + 1]]) for i in range(len(sizes))]


def assign_nodules(
    nodules: list[Nodule],
    organ_conf: np.ndarray,
    constants: ScoringConstants,
) -> list[Nodule]:
    """Assign each nodule to an organ by overlap with the organs of the
    (8, H, W) confidences, thresholded as threshold_organ_masks does.

    Winner selection, in order: greatest pixel overlap; then greatest
    summed confidence of the organ over its overlapping pixels; then
    lowest organ code. Nodules overlapping no organ stay unassigned and
    contribute to no station.

    All nodules of a frame are scored at once: the organ confidences
    are gathered and thresholded at the nodule pixels only, then one
    ``np.bincount`` over ``8 * nodule + organ`` gives the overlap counts
    and a second one, weighted by the confidences, gives their float64
    sums. The winner is picked with array operations under the rules
    above. The sums add in pixel order, and the order cannot decide a
    tie: float32 confidences in [2**e, 1] sum exactly in float64 over
    fewer than 2**(30 + e) pixels, e.g. any frame under 2**23 pixels
    thresholded at 1/128 or more.
    """
    if organ_conf.ndim != 3 or organ_conf.shape[0] != 8:
        raise ChannelCountMismatchError(f"expected 8 organ channels, got shape {organ_conf.shape}")
    if not nodules:
        return nodules
    height, width = organ_conf.shape[1:]
    sizes = np.array([n.size for n in nodules])
    px = np.concatenate([n.pixels for n in nodules])
    outside = (px[:, 0] < 0) | (px[:, 0] >= height) | (px[:, 1] < 0) | (px[:, 1] >= width)
    if outside.any():
        first = int(np.searchsorted(np.cumsum(sizes), np.argmax(outside), side="right"))
        raise DimensionMismatchError(
            f"nodule {nodules[first].id} has pixels outside the {height}x{width} frame"
        )
    n = len(nodules)
    conf = organ_conf.reshape(8, -1)[:, px[:, 0].astype(np.int64) * width + px[:, 1]]
    organ, pixel = np.nonzero(_organ_hits(conf, constants))
    key = np.repeat(np.arange(n) * 8, sizes)[pixel] + organ
    counts = np.bincount(key, minlength=8 * n).reshape(n, 8)
    conf_sums = np.bincount(key, weights=conf[organ, pixel], minlength=8 * n).reshape(n, 8)

    most = counts.max(axis=1)
    top = counts == most[:, None]
    top_sums = np.where(top, conf_sums, -np.inf)
    top &= top_sums == top_sums.max(axis=1, keepdims=True)
    best = np.argmax(top, axis=1)  # first True: the lowest code
    for nodule, row, code, hit in zip(nodules, counts, best.tolist(), (most > 0).tolist()):
        nodule.overlap_counts = row
        nodule.assigned_organ = _ORGANS[code] if hit else None
    return nodules


def classify_frame(
    frame: ConfidenceFrame,
    constants: ScoringConstants,
    *,
    pc_mask: np.ndarray | None = None,
) -> FrameAssessment:
    """Frame-level station classification.

    Threshold the carcinomatosis plane, extract nodules, assign them to
    organs (assign_nodules, which thresholds the organ planes at the
    nodule pixels only); a station is positive iff at least one nodule
    was assigned to one of its organs. pc_mask, when given, must be
    threshold_pc_mask(frame, constants); score_frames passes the mask
    its Dice already used. The frame checked its planes when it was
    built; only pc_mask, which comes from the caller, is checked here.
    """
    if pc_mask is None:
        pc_mask = threshold_pc_mask(frame, constants)
    elif pc_mask.shape != frame.pc_conf.shape:
        raise DimensionMismatchError(
            f"frame {frame.frame_index}: pc_mask {pc_mask.shape} vs planes {frame.pc_conf.shape}"
        )
    nodules = connected_components(pc_mask, connectivity=8)
    if constants.min_nodule_pixels > 1:
        nodules = [n for n in nodules if n.size >= constants.min_nodule_pixels]
    assign_nodules(nodules, frame.organ_conf, constants)
    hit = {station_of(n.assigned_organ) for n in nodules if n.assigned_organ is not None}
    return FrameAssessment(
        frame_index=frame.frame_index,
        time_s=frame.time_s,
        station_positive=tuple(s in hit for s in Station),
        nodules=nodules,
    )


def aggregate_video(frame_assessments: list[FrameAssessment]) -> tuple[bool, ...]:
    """Per-station OR over frames: a station is video-positive if it was
    ever positive in any assessed frame."""
    if not frame_assessments:
        raise NoAssessableFramesError("no frames to aggregate")
    return tuple(map(any, zip(*(fa.station_positive for fa in frame_assessments))))


def compute_fs(station_positive: tuple[bool, ...], constants: ScoringConstants) -> int:
    """Total score: points per positive station times the positive count
    (0, 2, ..., 12 at the default 2 points per station)."""
    return constants.points_per_positive_station * sum(bool(s) for s in station_positive)


def compute_its(fs: int, constants: ScoringConstants) -> Indication:
    """Surgery contraindicated iff the score reaches the cutoff."""
    if fs >= constants.its_cutoff:
        return Indication.SURGERY_CONTRAINDICATED
    return Indication.SURGERY_INDICATED


def score_frames(
    video_id: str,
    records: Iterable,
    load: Callable[[object], ConfidenceFrame],
    constants: ScoringConstants,
    want_dice: bool = False,
    want_roi: bool = False,
) -> tuple[VideoAssessment, dict[str, list] | None, ConfusionCounts | None]:
    """Run the full chain over one video's frames in a single pass.

    records are manifest FrameRecords or ConfidenceFrames; both carry
    frame_index, roi_score, gt_roi, gt_labels and gt_pc. load(record)
    returns the record's ConfidenceFrame, which need stay valid only
    until the next load call, and is called only for frames the pass
    needs: those whose relevance score reaches the ROI threshold (>=
    semantics) feed the station chain, and with want_dice those
    carrying a ground-truth raster, unless flagged non-ROI, feed
    per-label Dice. A record that feeds no Dice reaches load with its
    gt_labels and gt_pc cleared, so its ground-truth rasters are never
    read. Each ConfidenceFrame checked its own planes when it was
    built, so a malformed frame fails in load (or where the caller
    built it); the frames of one video must also share one raster size
    (no silent resampling).

    Returns the assessment, the Dice lists (want_dice: one list per
    organ slug and PC_DICE_KEY, in record order) and the ROI confusion
    counts over the records carrying a relevance flag (want_roi; None
    when no record carries one). Raises NoAssessableFramesError when no
    frame reaches the ROI threshold.
    """
    dice_lists = {key: [] for key in (*ORGAN_SLUGS, PC_DICE_KEY)} if want_dice else None
    roi_counts = [0, 0, 0, 0]  # tp, fp, tn, fn
    saw_roi_flag = False
    assessments: list[FrameAssessment] = []
    shape: tuple[int, int] | None = None
    for record in records:
        roi_pass = record.roi_score >= constants.roi_threshold
        if want_roi and record.gt_roi is not None:
            saw_roi_flag = True
            roi_counts[2 * (not roi_pass) + (roi_pass != record.gt_roi)] += 1
        has_gt_raster = record.gt_labels is not None or record.gt_pc is not None
        need_dice = want_dice and has_gt_raster and record.gt_roi is not False
        if not roi_pass and not need_dice:
            continue
        if has_gt_raster and not need_dice:
            record = replace(record, gt_labels=None, gt_pc=None)
        frame = load(record)
        shape = shape or (frame.height, frame.width)
        if (frame.height, frame.width) != shape:
            raise DimensionMismatchError(
                f"frame {record.frame_index}: raster size "
                f"{(frame.height, frame.width)} differs from {shape}"
            )
        if need_dice and frame.gt_labels is not None:
            for organ, mask in zip(OrganClass, threshold_organ_masks(frame, constants)):
                dice_lists[organ.slug].append(metrics.dice(frame.gt_labels == organ + 1, mask))
        pc_mask = None
        if need_dice and frame.gt_pc is not None:
            pc_mask = threshold_pc_mask(frame, constants)
            dice_lists[PC_DICE_KEY].append(metrics.dice(frame.gt_pc > 0, pc_mask))
        if roi_pass:
            assessments.append(classify_frame(frame, constants, pc_mask=pc_mask))
    if not assessments:
        raise NoAssessableFramesError(
            f"no frame reached the ROI threshold {constants.roi_threshold}"
        )
    stations = aggregate_video(assessments)
    fs = compute_fs(stations, constants)
    video = VideoAssessment(
        video_id=video_id,
        station_positive=stations,
        fs=fs,
        its=compute_its(fs, constants),
        frames_used=len(assessments),
        frames=assessments,
    )
    roi = ConfusionCounts(*roi_counts) if want_roi and saw_roi_flag else None
    return video, dice_lists, roi


def score_video(
    manifest: VideoManifest, constants: ScoringConstants | None = None
) -> VideoAssessment:
    """score_frames over one manifest, its rasters read from the
    manifest's base_dir. Deterministic for fixed inputs and constants."""
    if manifest.base_dir is None:
        raise ValueError("manifest has no base_dir to read its rasters from")
    video, _, _ = score_frames(
        manifest.video_id,
        manifest.frames,
        maskio.frame_loader(manifest.base_dir),
        constants or ScoringConstants(),
    )
    return video
