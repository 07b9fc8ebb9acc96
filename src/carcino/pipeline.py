"""Video scoring pipeline.

The chain per video: keep frames the relevance (ROI) score accepts,
threshold the carcinomatosis confidence map, split it into nodules by
connected components, assign every nodule to the organ it overlaps most
(organ confidences are thresholded at nodule pixels; only organ Dice
needs full organ masks), mark the organ's station positive when a nodule
sits on it, OR the station vectors over all frames, and convert the
positive-station count into the total score and the surgery indication.

score_frames runs that chain once per video for every caller: score_video
over a manifest, cohort evaluation over a manifest with frame-level Dice,
and the Monte Carlo sweep over generated frames; evaluation counts ROI
accuracy by _is_relevant from the manifest alone. The video's ROI masks
are stacked with a blank row after each, so one classify_frame call
scores every nodule of the video, in one NoduleTable.

All thresholds use >= semantics. Thresholds are compared at float32
precision, matching the raster payload, so a pixel stored as the
nearest float32 to the threshold value is included. Everything here is
pure per video; videos may be processed on any number of workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import maskio, metrics
from .core import (
    _STATION_OF, ORGAN_SLUGS, STATION_SLUGS, Indication, OrganClass, ScoringConstants, Station,
    compute_fs, compute_its,
)
from .errors import CarcinoError, NoAssessableFramesError
from .maskio import ConfidenceFrame, VideoManifest

__all__ = [
    "NoduleTable",
    "RowRuns",
    "VideoAssessment",
    "threshold_organ_masks",
    "threshold_pc_mask",
    "connected_components",
    "assign_nodules",
    "classify_frame",
    "score_frames",
    "score_video",
]

PC_DICE_KEY = "peritoneal_carcinomatosis"  # Dice list of the carcinomatosis mask
_ORGAN_STATION = np.array(_STATION_OF)  # station code of each organ code
_RUN_BLOCK_PIXELS = 1 << 16  # score_frames reads row runs in blocks of this many pixels

# a scalar as canonical_json writes it, ValueError for a non-finite float
_json = json.JSONEncoder(allow_nan=False).encode
# the record of VideoAssessment.to_json at canonical_json's indents and key order
_VIDEO_JSON = (
    '{\n  "frames": %s,\n  "frames_used": %s,\n  "fs": %s,\n  "its": %s,\n'
    '  "station_positive": {\n%s\n  },\n  "video_id": %s\n}\n'
)
_FRAME_JSON = (
    '    {\n      "frame_index": %s,\n      "nodules": %s,\n'
    '      "stations_positive": %s,\n      "time_s": %s\n    }'
)
_NODULE_JSON = (
    '        {\n          "id": %d,\n          "organ": %s,\n          "size": %d\n        }'
)
_ORGAN_JSON = np.array(  # by organ code; [-1], no organ, is null
    [*map(_json, ORGAN_SLUGS), "null"], dtype=object
)
_STATION_JSON = tuple("        " + _json(slug) for slug in STATION_SLUGS)


@dataclass(eq=False)
class NoduleTable:
    """The nodules of one mask, one row per nodule, in row-major order of
    their first pixels (for a stacked video, frame order). Every column
    is an int64 array: frame (n,), the nodule's frame in a stacked mask,
    0 for one frame; id (n,), its number within its frame, given before
    min_nodule_pixels drops any, so a filtered table's ids have gaps;
    size (n,); organ (n,), the organ code assign_nodules gave it, -1 for
    none and before assignment; counts (n, 8), its pixel overlap per
    organ. One more int64 column runs over the mask's P true pixels in
    row-major order: pixel_nodule (P,), the table row of each pixel's
    nodule, -1 for a pixel whose nodule take dropped.
    """

    frame: np.ndarray
    id: np.ndarray
    size: np.ndarray
    organ: np.ndarray
    counts: np.ndarray
    pixel_nodule: np.ndarray

    def __len__(self) -> int:
        return self.size.size

    def take(self, keep: np.ndarray) -> "NoduleTable":
        """The nodules where the bool array keep is true, in table order."""
        columns = (self.frame, self.id, self.size, self.organ, self.counts)
        row = np.append(np.where(keep, np.cumsum(keep) - 1, -1), -1)  # row[-1]: -1 stays -1
        return NoduleTable(*(column[keep] for column in columns), row[self.pixel_nodule])


@dataclass(eq=False)
class VideoAssessment:
    """Video-level result: station vector, total score, indication, and
    per assessed (ROI) frame, in order, its index, time and station
    flags, with the nodules of all those frames in one table."""

    video_id: str
    station_positive: tuple[bool, ...]
    fs: int
    its: Indication
    frame_index: tuple[int, ...]
    time_s: tuple[float, ...]
    frame_stations: np.ndarray  # (frames_used, 6) bool
    nodules: NoduleTable

    @property
    def frames_used(self) -> int:
        return len(self.frame_index)

    def to_json(self) -> str:
        """The assessment as ``score`` writes it: the bytes that
        ``maskio.canonical_json`` gives for the video's id, station
        flags, score, indication and frame count, and per frame its
        index, time, positive stations and nodules (id, size, organ slug
        or null). They are written straight from the nodule table, with
        ``json`` encoding only scalars, since it encodes ``indent=2`` in
        pure Python. Raises ValueError for a non-finite time, as
        canonical_json does."""
        table = self.nodules
        organs = _ORGAN_JSON[table.organ].tolist()
        nodules = [
            _NODULE_JSON % row for row in zip(table.id.tolist(), organs, table.size.tolist())
        ]
        bounds = np.searchsorted(table.frame, np.arange(self.frames_used + 1)).tolist()
        frames = [
            _FRAME_JSON % (
                _json(index),
                _json_list(nodules[bounds[k] : bounds[k + 1]], "      "),
                _json_list([s for s, flag in zip(_STATION_JSON, flags) if flag], "      "),
                _json(time_s),
            )
            for k, (index, time_s, flags) in enumerate(
                zip(self.frame_index, self.time_s, self.frame_stations.tolist())
            )
        ]
        stations = ",\n".join(
            f"    {_json(slug)}: {_json(flag)}"
            for slug, flag in sorted(zip(STATION_SLUGS, self.station_positive))
        )
        return _VIDEO_JSON % (
            _json_list(frames, "  "),
            _json(self.frames_used),
            _json(self.fs),
            _json(self.its.value),
            stations,
            _json(self.video_id),
        )


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of items already written at their indent, its closing
    bracket at indent."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _organ_hits(organ_conf: np.ndarray, constants: ScoringConstants) -> np.ndarray:
    """The organ-threshold rule, for a whole frame or gathered pixels."""
    return organ_conf >= np.float32(constants.organ_confidence_threshold)


def threshold_organ_masks(frame: ConfidenceFrame, constants: ScoringConstants) -> np.ndarray:
    """Binary organ masks, one plane per organ channel: (8, H, W) bool."""
    return _organ_hits(frame.organ_conf, constants)


def threshold_pc_mask(frame: ConfidenceFrame, constants: ScoringConstants, out=None) -> np.ndarray:
    """Binary carcinomatosis mask: (H, W) bool, written into out if given."""
    return np.greater_equal(frame.pc_conf, np.float32(constants.pc_confidence_threshold), out=out)


def _row_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, first column and end column (half-open) of every run of true
    pixels in a bool mask, in row-major order; the rows of a stack of
    frames are counted through the stack.

    A run starts on a true pixel whose left neighbour in its row is
    false and ends on one whose right neighbour is. The flat mask is
    ANDed with its negated neighbours, the pixels at the row edges are
    put back, and ``np.flatnonzero`` reads the starts and the ends.
    """
    width = mask.shape[-1]
    flat = mask.ravel()
    if not flat.size:
        return (np.zeros(0, dtype=np.intp),) * 3
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


class RowRuns(NamedTuple):
    """A bool mask held as the runs of true pixels of its rows, as
    _row_runs gives them with rows counted through the whole mask, and
    the mask's shape: (H, W) for one frame, (F, H + 1, W) for a stack."""

    rows: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    shape: tuple[int, ...]


def connected_components(mask: np.ndarray | RowRuns, connectivity: int = 8) -> NoduleTable:
    """Partition the true pixels of a binary mask into maximal connected
    components (nodules), as a NoduleTable with no organ assigned.

    The mask is one (H, W) frame, or an (F, H + 1, W) stack of F frames
    of which every one but the last ends in a blank row, or the RowRuns
    of either. A blank row cuts every connection between the frames
    around it, so the stack is labelled as one (F * (H + 1), W) frame,
    each nodule's frame is its first row // (H + 1), and the ids restart
    at 0 in every frame.

    Two-pass labelling on row runs, after Wu, Otoo & Suzuki (2009), with
    every step an array operation. ``_row_runs`` yields the runs of all
    rows, in row-major order. A run touches the runs of the row above
    whose column span overlaps its own widened by one column
    (8-connectivity) or overlaps it (4-connectivity); because the runs
    of a row are sorted and disjoint, those runs form one contiguous
    range, found for every run by two ``np.searchsorted`` calls. The
    touching pairs are merged by repeated minimum hooking
    (``np.minimum.at``) and pointer jumping until every pair shares a
    label, so each run ends up labelled with the lowest run index of its
    component.

    Components are ordered by their first pixel in row-major order, the
    order of those lowest run indices, and each run's component is
    repeated over its pixels for pixel_nodule. Connectivity is 8
    (default, diagonal neighbours connect) or 4.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    if not isinstance(mask, RowRuns):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim not in (2, 3):
            raise ValueError("mask must be 2-D, or 3-D for stacked frames")
        if mask.ndim == 3 and mask[:-1, -1:].any():
            raise ValueError("every stacked frame but the last must end in a blank row")
        mask = RowRuns(*_row_runs(mask), mask.shape)
    rows, starts, ends, (*_, frame_rows, width) = mask
    n_runs = rows.size

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
    lengths = ends - starts
    size = np.bincount(component, weights=lengths).astype(np.int64)
    frame = rows[is_root] // frame_rows  # a root is its component's first run
    ids = np.arange(size.size) - np.searchsorted(frame, frame)  # restart in every frame
    empty = np.zeros((size.size, 8), dtype=np.int64)
    pixel_nodule = np.repeat(component, lengths)
    return NoduleTable(frame, ids, size, np.full(size.size, -1), empty, pixel_nodule)


def assign_nodules(
    nodules: NoduleTable, pixel_conf: np.ndarray, constants: ScoringConstants
) -> NoduleTable:
    """Assign each nodule to an organ by overlap with the organs, given
    as pixel_conf, the (8, P) organ confidences at the P true pixels of
    the nodules' mask in row-major order, thresholded as
    threshold_organ_masks does. Fills the table's organ and counts in
    place and returns it.

    Winner selection, in order: greatest pixel overlap; then greatest
    summed confidence of the organ over its overlapping pixels; then
    lowest organ code. Nodules overlapping no organ stay unassigned
    (organ -1) and contribute to no station.

    All nodules are scored at once: the confidences are thresholded as
    given, then one ``np.bincount`` over ``8 * pixel_nodule[pixel] +
    organ + 8`` gives the overlap counts, and a second one, weighted by
    the confidences, their float64 sums; the 8 leading bins, of the
    pixels of dropped nodules (-1), are cut off. The winner is picked
    with array operations under the rules above. Each bin adds its
    pixels in the nodule's row-major order, whatever the threshold. A
    pixel label outside [-1, n), or a pixel count other than
    pixel_conf's, raises CarcinoError.
    """
    if pixel_conf.ndim != 2 or pixel_conf.shape[0] != 8:
        raise CarcinoError(f"expected 8 organ channels, got shape {pixel_conf.shape}")
    n = len(nodules)
    label = nodules.pixel_nodule
    in_range = not label.size or -1 <= label.min() and label.max() < n
    if label.shape != pixel_conf.shape[1:] or not in_range:
        raise CarcinoError(
            f"pixel_nodule {label.shape} must give a row in [-1, {n}) for each "
            f"pixel of pixel_conf {pixel_conf.shape}"
        )
    organ, pixel = np.nonzero(_organ_hits(pixel_conf, constants))
    key = 8 * label[pixel] + organ + 8
    counts = np.bincount(key, minlength=8 * n + 8)[8:].reshape(n, 8)
    conf_sums = np.bincount(key, pixel_conf[organ, pixel], minlength=8 * n + 8)[8:].reshape(n, 8)
    most = counts.max(axis=1)
    top = counts == most[:, None]
    top_sums = np.where(top, conf_sums, -np.inf)
    top &= top_sums == top_sums.max(axis=1, keepdims=True)
    nodules.organ = np.where(most > 0, np.argmax(top, axis=1), -1)  # first True: lowest code
    nodules.counts = counts
    return nodules


def classify_frame(
    pc_mask: np.ndarray, pixel_conf: np.ndarray, constants: ScoringConstants
) -> tuple[np.ndarray, NoduleTable]:
    """Station classification of one frame or of a stacked video.

    pc_mask is a thresholded carcinomatosis mask, one (H, W) frame, an
    (F, H + 1, W) stack or the RowRuns of either (see
    connected_components), and pixel_conf the (8, P) organ confidences
    at its P true pixels in row-major order. One connected_components
    call splits the mask into nodules, those under min_nodule_pixels are
    dropped, and one assign_nodules call assigns the rest to organs. A
    station is positive in a frame iff a nodule of the frame was
    assigned to one of its organs. Returns the (F, 6) bool station flags
    (F = 1 for one frame) and the nodule table.
    """
    nodules = connected_components(pc_mask)
    if pixel_conf.shape[1:] != nodules.pixel_nodule.shape:
        raise CarcinoError(
            f"pc_mask has {nodules.pixel_nodule.size} true pixels, pixel_conf {pixel_conf.shape}"
        )
    nodules = nodules.take(nodules.size >= constants.min_nodule_pixels)
    assign_nodules(nodules, pixel_conf, constants)
    n_frames = pc_mask.shape[0] if len(pc_mask.shape) == 3 else 1
    stations = np.zeros((n_frames, len(Station)), dtype=bool)
    hit = nodules.organ >= 0
    stations[nodules.frame[hit], _ORGAN_STATION[nodules.organ[hit]]] = True
    return stations, nodules


def _is_relevant(record, constants: ScoringConstants) -> bool:
    """The ROI rule: a frame is assessed iff its relevance score reaches the ROI threshold."""
    return record.roi_score >= constants.roi_threshold


def score_frames(
    video_id: str,
    records: Iterable,
    load: Callable[[object], ConfidenceFrame],
    constants: ScoringConstants,
    want_dice: bool = False,
) -> tuple[VideoAssessment, dict[str, list] | None]:
    """Run the full chain over one video's frames in a single pass.

    records are manifest FrameRecords or ConfidenceFrames; both carry
    frame_index, roi_score, gt_roi, gt_labels and gt_pc. load(record)
    returns the record's ConfidenceFrame, which need stay valid only
    until the next load call, and is called only for frames the pass
    needs: those _is_relevant accepts feed the station chain, and with
    want_dice those carrying a ground-truth raster, unless flagged
    non-ROI, feed per-label Dice.
    A FrameRecord that feeds no Dice reaches load with its gt_labels and
    gt_pc paths cleared, so its ground-truth rasters are never read; a
    ConfidenceFrame, whose rasters are already in memory, reaches it as
    it is. Each ConfidenceFrame checked its own planes when it was
    built, so a malformed frame fails in load (or where the caller built
    it); the frames of one video must also share one raster size (no
    silent resampling). Each ROI frame is thresholded into the next
    block of a stack, whose row runs are read once ``_RUN_BLOCK_PIXELS``
    pixels (at least one frame) are in it, and its organ confidences are
    gathered at its mask's pixels before the next load; one
    classify_frame call then scores the RowRuns of the whole stack.

    Returns the assessment and the Dice lists (want_dice: one list per
    organ slug and PC_DICE_KEY, in record order; otherwise None). Raises
    NoAssessableFramesError when no frame reaches the ROI threshold.
    """
    dice_lists = {key: [] for key in (*ORGAN_SLUGS, PC_DICE_KEY)} if want_dice else None
    frames: list[tuple[int, float]] = []  # frame_index and time_s of ROI frame k
    pixel_conf: list[np.ndarray] = []  # (8, P_k) organ confidences at ROI frame k's PC pixels
    runs: list[tuple] = []  # row runs of the ROI frames stacked so far
    block = np.zeros((0, 1, 1), dtype=bool)  # ROI frame k thresholded into block[k % len(block)]
    shape: tuple[int, int] | None = None

    def read_runs(count: int) -> None:  # of the last count frames, all in block
        rows, starts, ends = _row_runs(block[:count])
        runs.append((rows + (len(frames) - count) * (shape[0] + 1), starts, ends))

    for record in records:
        roi_pass = _is_relevant(record, constants)
        has_gt_raster = record.gt_labels is not None or record.gt_pc is not None
        need_dice = want_dice and has_gt_raster and record.gt_roi is not False
        if not roi_pass and not need_dice:
            continue
        if has_gt_raster and not need_dice and not isinstance(record, ConfidenceFrame):
            record = replace(record, gt_labels=None, gt_pc=None)
        frame = load(record)
        shape = shape or (frame.height, frame.width)
        if (frame.height, frame.width) != shape:
            raise CarcinoError(
                f"frame {record.frame_index}: raster size "
                f"{(frame.height, frame.width)} differs from {shape}"
            )
        if need_dice and frame.gt_labels is not None:
            for organ, mask in zip(OrganClass, threshold_organ_masks(frame, constants)):
                dice_lists[organ.slug].append(metrics.dice(frame.gt_labels == organ + 1, mask))
        pc_mask = None
        if roi_pass:
            if not len(block):  # as many stacked frames as one run block holds, at least one
                n = max(1, _RUN_BLOCK_PIXELS // ((shape[0] + 1) * max(shape[1], 1)))
                block = np.zeros((n, shape[0] + 1, shape[1]), dtype=bool)
            pc_mask = threshold_pc_mask(frame, constants, out=block[len(frames) % len(block), :-1])
            # gathered now: the frame need stay valid only until the next load
            pixel_conf.append(frame.organ_conf.reshape(8, -1)[:, np.flatnonzero(pc_mask)])
            frames.append((frame.frame_index, frame.time_s))
            if len(frames) % len(block) == 0:  # full: read its runs before it is reused
                read_runs(len(block))
        if need_dice and frame.gt_pc is not None:
            if pc_mask is None:
                pc_mask = threshold_pc_mask(frame, constants)
            dice_lists[PC_DICE_KEY].append(metrics.dice(frame.gt_pc > 0, pc_mask))
    if not frames:
        raise NoAssessableFramesError(
            f"no frame reached the ROI threshold {constants.roi_threshold}"
        )
    read_runs(len(frames) % len(block))
    stack = RowRuns(*map(np.concatenate, zip(*runs)), (len(frames), shape[0] + 1, shape[1]))
    frame_stations, nodules = classify_frame(stack, np.concatenate(pixel_conf, axis=1), constants)
    stations = tuple(frame_stations.any(axis=0).tolist())
    fs = compute_fs(stations, constants)
    its = compute_its(fs, constants)
    frame_index, time_s = zip(*frames)
    video = VideoAssessment(
        video_id, stations, fs, its, frame_index, time_s, frame_stations, nodules
    )
    return video, dice_lists


def score_video(
    manifest: VideoManifest, constants: ScoringConstants | None = None
) -> VideoAssessment:
    """score_frames over one manifest, its rasters read from the
    manifest's base_dir. Deterministic for fixed inputs and constants."""
    if manifest.base_dir is None:
        raise ValueError("manifest has no base_dir to read its rasters from")
    video, _ = score_frames(
        manifest.video_id,
        manifest.frames,
        maskio.frame_loader(manifest.base_dir),
        constants or ScoringConstants(),
    )
    return video
