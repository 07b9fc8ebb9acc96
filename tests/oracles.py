"""Independent brute-force oracles used to check the production paths.

These deliberately share no code with the package: components come from
a naive flood fill over pixel sets, nodule assignment is the former
per-nodule loop, morphology is the former eight-shift loop, and frame
classification recomputes station involvement with plain Python loops.
Slow and obviously correct, for small inputs only. Two exceptions run
the package's own steps: disk_sweep_run, the former disk-backed sweep
replicate, runs the write, load and evaluate path, and assess_frames,
the former evaluation loop, runs the per-frame chain. The former raster
decoder and Dice count keep their own header checks and sums; the
decoder shares only the format constants, the error classes and the
value check with maskio. The former run extraction and confidence value
check are the references for the package's edge-based extraction and
one-pass check, and the former per-frame organ layout, nodule site and
disc formulas are the references for synth's cached shapes and disc
offsets. reference_frame, the former per-disc frame generator, builds
on those three and the shift-loop morphology; it takes the frame
generator, the confidence plateaus and the organs of a station from the
package. connected_components, assign_nodules, classify_frame and
aggregate_video are the former per-frame chain, one Nodule object per
nodule, kept as the reference for the package's per-video table; they
share only the organ-to-station map _STATION_OF with the package. Like
filter_then_assign, the package's former classify_frame over its own
steps, they drop the nodules under min_nodule_pixels before assigning;
both are references for the package, which assigns every nodule and
then filters the assigned table in pipeline.decide.
oracle_stations and oracle_fs read the planted truth of a generated
video. assessment_dict, the former record builder of VideoAssessment,
is the reference for its JSON writer. pixel_set, nodule_list and
fold_ids are plain views of package objects that only the tests take.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from carcino import maskio, metrics, pipeline, synth
from carcino.cohort import EvalRun, FoldAssignment, evaluate_cohort, load_cohort
from carcino.core import (
    _ORGANS_OF, _STATION_OF, ORGAN_SLUGS, STATION_SLUGS, OrganClass, Station,
)
from carcino.errors import CarcinoError, MaskFormatError, NoAssessableFramesError
from carcino.synth import generate_cohort


def pixel_set(nodule: Nodule) -> frozenset[tuple[int, int]]:
    """The (row, col) pixels of a reference nodule as a set."""
    return frozenset((int(r), int(c)) for r, c in nodule.pixels)


def nodule_list(nodules: pipeline.NoduleTable, mask) -> list[Nodule]:
    """The rows of a nodule table of mask as reference Nodules: id,
    (row, col) int32 pixels in row-major order (rows count within the
    nodule's frame for a stacked mask), organ and overlap counts."""
    mask = np.asarray(mask, dtype=bool)
    rows, cols = np.divmod(np.flatnonzero(mask), mask.shape[-1])
    pixels = np.stack([rows % mask.shape[-2], cols], axis=1).astype(np.int32)
    return [
        Nodule(i, pixels[nodules.pixel_nodule == row], OrganClass(organ) if organ >= 0 else None, n)
        for row, (i, organ, n) in enumerate(
            zip(nodules.id.tolist(), nodules.organ.tolist(), nodules.counts)
        )
    ]


def assessment_dict(video: pipeline.VideoAssessment) -> dict:
    """The record that ``score`` writes for an assessment, as a plain
    dict built nodule by nodule; canonical_json of it is the reference
    for VideoAssessment.to_json."""
    table = video.nodules
    nodules = [
        {"id": i, "size": size, "organ": ORGAN_SLUGS[organ] if organ >= 0 else None}
        for i, size, organ in zip(table.id.tolist(), table.size.tolist(), table.organ.tolist())
    ]
    bounds = np.searchsorted(table.frame, np.arange(video.frames_used + 1)).tolist()
    flags = video.frame_stations.tolist()
    return {
        "video_id": video.video_id,
        "station_positive": dict(zip(STATION_SLUGS, video.station_positive)),
        "fs": video.fs,
        "its": video.its.value,
        "frames_used": video.frames_used,
        "frames": [
            {
                "frame_index": index,
                "time_s": time_s,
                "stations_positive": [s for s, flag in zip(STATION_SLUGS, flags[k]) if flag],
                "nodules": nodules[bounds[k] : bounds[k + 1]],
            }
            for k, (index, time_s) in enumerate(zip(video.frame_index, video.time_s))
        ],
    }


def fold_ids(folds: FoldAssignment, fold: int) -> list[str]:
    """The sorted ids of the videos that folds puts in fold."""
    return sorted(vid for vid, f in folds.assignment.items() if f == fold)


def bytes_decode_raster(blob: bytes, context: str = "") -> np.ndarray:
    """Reference MSK1 decoder, the former three-copy path: slice the
    payload off the whole blob, view it, copy the view."""
    where = f" in {context}" if context else ""
    if len(blob) < maskio.HEADER_SIZE:
        raise MaskFormatError(
            f"file shorter than the {maskio.HEADER_SIZE}-byte header{where}"
        )
    magic, width, height, channels, code = maskio._HEADER.unpack_from(blob)
    if magic != maskio.MAGIC:
        raise MaskFormatError(f"bad magic {magic!r}{where}")
    if code not in maskio._NUMPY_DTYPES:
        raise MaskFormatError(f"unknown dtype code {code}{where}")
    if width < 1 or height < 1 or channels < 1:
        raise MaskFormatError(f"zero-sized raster dimension{where}")
    expected = width * height * channels * maskio._NUMPY_DTYPES[code].itemsize
    payload = blob[maskio.HEADER_SIZE :]
    if len(payload) < expected:
        raise MaskFormatError(
            f"payload is {len(payload)} bytes, expected {expected}{where}"
        )
    if len(payload) > expected:
        raise MaskFormatError(
            f"{len(payload) - expected} trailing bytes after payload{where}"
        )
    arr = np.frombuffer(payload, dtype=maskio._NUMPY_DTYPES[code]).reshape(channels, height, width)
    arr = arr.copy()  # frombuffer yields a read-only view
    maskio._validate_values(arr, code, context)
    return arr


def bytes_read_raster(path) -> np.ndarray:
    """Reference file reader: the whole file as bytes, then decoded."""
    path = Path(path)
    return bytes_decode_raster(path.read_bytes(), context=str(path))


def float_check_confidences(arr: np.ndarray, context: str = "") -> None:
    """Reference confidence value check, the former float test: min()
    and max() against [0, 1], then isfinite to pick the message."""
    where = f" in {context}" if context else ""
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        if not np.isfinite(arr).all():
            raise MaskFormatError(f"non-finite confidence value{where}")
        raise MaskFormatError(f"confidence value outside [0, 1]{where}")


def sum_dice(gt, pred) -> float | None:
    """Reference Dice over bool sums, as metrics.dice counted before."""
    gt = np.asarray(gt, dtype=bool)
    pred = np.asarray(pred, dtype=bool)
    if gt.shape != pred.shape:
        raise CarcinoError(f"mask shapes differ: {gt.shape} vs {pred.shape}")
    denom = int(gt.sum()) + int(pred.sum())
    if denom == 0:
        return None
    inter = int(np.logical_and(gt, pred).sum())
    return 2.0 * inter / denom


def flood_components(mask, connectivity: int = 8) -> list[frozenset]:
    """All connected components of a binary mask via stack-based flood
    fill, ordered by their smallest (row, col) pixel."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    remaining = {(r, c) for r in range(h) for c in range(w) if mask[r, c]}
    components = []
    while remaining:
        start = min(remaining)
        remaining.discard(start)
        stack = [start]
        component = {start}
        while stack:
            r, c = stack.pop()
            if connectivity == 8:
                neighbours = [
                    (r + dr, c + dc)
                    for dr in (-1, 0, 1)
                    for dc in (-1, 0, 1)
                    if (dr, dc) != (0, 0)
                ]
            else:
                neighbours = [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]
            for n in neighbours:
                if n in remaining:
                    remaining.discard(n)
                    component.add(n)
                    stack.append(n)
        components.append(frozenset(component))
    components.sort(key=lambda comp: min(comp))
    return components


def padded_row_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference run extraction, the former padded-diff one: pad every
    row with a false column on each side, take the columns where the
    padded row changes value with one 2-D np.nonzero, and read them as
    alternating starts and half-open ends."""
    height, width = mask.shape
    padded = np.zeros((height, width + 2), dtype=bool)
    padded[:, 1:-1] = mask
    edge_rows, edge_cols = np.nonzero(padded[:, 1:] != padded[:, :-1])
    return edge_rows[0::2], edge_cols[0::2], edge_cols[1::2]


def loop_assign(pixel_arrays, organ_masks, organ_conf) -> list[tuple]:
    """Reference nodule assignment, one nodule at a time: for each (n, 2)
    (row, col) pixel array, the (8,) int64 overlap counts per organ and
    the winning organ code (greatest count, then greatest float64 sum of
    the organ's confidence over the overlap, then lowest code), or None
    when the nodule overlaps no organ."""
    masks_flat = organ_masks.reshape(8, -1)
    conf_flat = organ_conf.reshape(8, -1).astype(np.float64)
    width = organ_masks.shape[2]
    results = []
    for px in pixel_arrays:
        flat = px[:, 0].astype(np.int64) * width + px[:, 1]
        overlap = masks_flat[:, flat]
        counts = overlap.sum(axis=1)
        conf_sums = (conf_flat[:, flat] * overlap).sum(axis=1)
        best = None
        for code in range(8):
            if counts[code] == 0:
                continue
            if best is None or counts[code] > counts[best] or (
                counts[code] == counts[best] and conf_sums[code] > conf_sums[best]
            ):
                best = code
        results.append((counts.astype(np.int64), best))
    return results


# --- the former per-frame chain ------------------------------------------------


@dataclass(eq=False)
class Nodule:
    """One connected component of a frame's thresholded carcinomatosis
    mask: an (n, 2) int32 array of (row, col) in row-major order, and
    the fields assign_nodules fills."""

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
    nodules: list[Nodule]


def connected_components(mask: np.ndarray, connectivity: int = 8) -> list[Nodule]:
    """Reference labelling, the former per-frame one: runs of every row,
    touching pairs by two searchsorted calls, minimum hooking and
    pointer jumping, components in row-major order of first pixel."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.size:
        return []
    width = mask.shape[1]
    rows, starts, ends = padded_row_runs(mask)
    n_runs = rows.size
    if n_runs == 0:
        return []
    stride = width + 1
    slack = 0 if connectivity == 8 else 1
    above = (rows - 1) * stride
    lo = np.searchsorted(rows * stride + ends, above + starts + slack, side="left")
    hi = np.searchsorted(rows * stride + starts, above + ends - slack, side="right")
    n_pairs = np.maximum(hi - lo, 0)
    cur = np.repeat(np.arange(n_runs), n_pairs)
    prev = np.arange(cur.size) - np.repeat(np.cumsum(n_pairs) - n_pairs - lo, n_pairs)
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


def assign_nodules(nodules: list[Nodule], organ_conf: np.ndarray, constants) -> list[Nodule]:
    """Reference assignment, the former per-frame one: the (8, H, W)
    confidences gathered at all nodule pixels of a frame, one bincount
    for the counts and one for the float64 sums, one loop turn per
    nodule to store the winner."""
    if not nodules:
        return nodules
    width = organ_conf.shape[2]
    sizes = np.array([n.size for n in nodules])
    px = np.concatenate([n.pixels for n in nodules])
    n = len(nodules)
    conf = organ_conf.reshape(8, -1)[:, px[:, 0].astype(np.int64) * width + px[:, 1]]
    organ, pixel = np.nonzero(conf >= np.float32(constants.organ_confidence_threshold))
    key = np.repeat(np.arange(n) * 8, sizes)[pixel] + organ
    counts = np.bincount(key, minlength=8 * n).reshape(n, 8)
    conf_sums = np.bincount(key, weights=conf[organ, pixel], minlength=8 * n).reshape(n, 8)
    most = counts.max(axis=1)
    top = counts == most[:, None]
    top_sums = np.where(top, conf_sums, -np.inf)
    top &= top_sums == top_sums.max(axis=1, keepdims=True)
    best = np.argmax(top, axis=1)
    for nodule, row, code, hit in zip(nodules, counts, best.tolist(), (most > 0).tolist()):
        nodule.overlap_counts = row
        nodule.assigned_organ = OrganClass(code) if hit else None
    return nodules


def classify_frame(frame, constants) -> FrameAssessment:
    """Reference frame classification, the former per-frame chain:
    threshold, label, drop nodules under min_nodule_pixels, assign, and
    mark the station of every assigned nodule."""
    mask = frame.pc_conf >= np.float32(constants.pc_confidence_threshold)
    nodules = connected_components(mask)
    nodules = [n for n in nodules if n.size >= constants.min_nodule_pixels]
    assign_nodules(nodules, frame.organ_conf, constants)
    hit = {_STATION_OF[n.assigned_organ] for n in nodules if n.assigned_organ is not None}
    return FrameAssessment(
        frame_index=frame.frame_index,
        time_s=frame.time_s,
        station_positive=tuple(s in hit for s in Station),
        nodules=nodules,
    )


def filter_then_assign(pc_mask, pixel_conf, constants) -> tuple[np.ndarray, pipeline.NoduleTable]:
    """Reference for assigning first and deciding after: the package's
    former classify_frame, which dropped the nodules under
    min_nodule_pixels and then assigned only the kept ones. The dropped
    nodules' pixels (pixel_nodule -1) are left out of the assignment, as
    its former 8 leading bins left them out. Returns the (F, 6) station
    flags and the kept table."""
    nodules = pipeline.connected_components(pc_mask)
    nodules = nodules.take(nodules.size >= constants.min_nodule_pixels)
    on = nodules.pixel_nodule >= 0
    assigned = pipeline.assign_nodules(
        replace(nodules, pixel_nodule=nodules.pixel_nodule[on]), pixel_conf[:, on], constants
    )
    nodules.organ, nodules.counts = assigned.organ, assigned.counts
    n_frames = pc_mask.shape[0] if len(pc_mask.shape) == 3 else 1
    stations = np.zeros((n_frames, len(Station)), dtype=bool)
    hit = nodules.organ >= 0
    stations[nodules.frame[hit], np.array(_STATION_OF)[nodules.organ[hit]]] = True
    return stations, nodules


def aggregate_video(frame_assessments: list[FrameAssessment]) -> tuple[bool, ...]:
    """Reference video aggregation: the per-station OR over frames."""
    if not frame_assessments:
        raise NoAssessableFramesError("no frames to aggregate")
    return tuple(map(any, zip(*(fa.station_positive for fa in frame_assessments))))


def oracle_stations(video) -> tuple[bool, ...]:
    """Planted station involvement of a CohortVideo or VideoManifest,
    straight from the generation log."""
    gt = video.ground_truth
    if gt is None:
        raise CarcinoError("video carries no planted ground truth")
    return gt.stations


def oracle_fs(video) -> int:
    """Recompute the planted score from the station log (2 points per
    involved station), independently of any raster; cross-checked
    against the stored total."""
    stations = oracle_stations(video)
    fs = 2 * sum(bool(s) for s in stations)
    stored = video.ground_truth.fs
    if fs != stored:
        raise CarcinoError(f"stored fs {stored} disagrees with planted stations ({fs})")
    return fs


def _shift(mask: np.ndarray, dr: int, dc: int) -> np.ndarray:
    out = np.zeros_like(mask)
    h, w = mask.shape
    rs_src = slice(max(0, -dr), min(h, h - dr))
    cs_src = slice(max(0, -dc), min(w, w - dc))
    rs_dst = slice(max(0, dr), min(h, h + dr))
    cs_dst = slice(max(0, dc), min(w, w + dc))
    out[rs_dst, cs_dst] = mask[rs_src, cs_src]
    return out


def shift_dilate(mask: np.ndarray, amount: int) -> np.ndarray:
    """Reference Chebyshev dilation: each iteration ORs the mask with its
    eight one-pixel shifts (pixels shifted in from outside are false)."""
    result = mask.copy()
    for _ in range(amount):
        grown = result.copy()
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr or dc:
                    grown |= _shift(result, dr, dc)
        result = grown
    return result


def shift_erode(mask: np.ndarray, amount: int) -> np.ndarray:
    """Reference Chebyshev erosion: each iteration ANDs the mask with its
    eight one-pixel shifts (pixels shifted in from outside are false)."""
    result = mask.copy()
    for _ in range(amount):
        shrunk = result.copy()
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr or dc:
                    shrunk &= _shift(result, dr, dc)
        result = shrunk
    return result


def organ_layout(rng, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference organ layout, the former per-frame one: (8, H, W) bool
    organ masks, each organ a rectangle or an inscribed ellipse on its
    3x3 grid cell inset by one pixel, chosen by one rng.integers(0, 2)
    per organ, and the (H, W) uint8 label raster with organ code + 1."""
    masks = np.zeros((8, height, width), dtype=bool)
    cell_w, cell_h = width // 3, height // 3
    for organ in range(8):
        col, row = organ % 3, organ // 3
        r0, r1 = row * cell_h + 1, (row + 1) * cell_h - 1
        c0, c1 = col * cell_w + 1, (col + 1) * cell_w - 1
        if rng.integers(0, 2):
            cy, cx = (r0 + r1 - 1) / 2.0, (c0 + c1 - 1) / 2.0
            ry, rx = max((r1 - r0) / 2.0, 0.5), max((c1 - c0) / 2.0, 0.5)
            rows = np.arange(r0, r1)[:, None]
            cols = np.arange(c0, c1)[None, :]
            masks[organ, r0:r1, c0:c1] = ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0
        else:
            masks[organ, r0:r1, c0:c1] = True
    labels = np.zeros((height, width), dtype=np.uint8)
    for organ in range(8):
        labels[masks[organ]] = organ + 1
    return masks, labels


def nodule_site(organ_mask: np.ndarray) -> tuple[int, np.ndarray] | None:
    """Reference nodule site, the rule the generator applied to every
    frame, here on the whole frame: the largest disc radius in 2, 1, 0
    for which the mask eroded by radius+1 keeps a pixel, and those pixels
    as flat frame indices; a radius-0 disc on any organ pixel as the last
    resort, None without one."""
    for radius, amount in ((2, 3), (1, 2), (0, 1), (0, 0)):
        candidates = np.flatnonzero(shift_erode(organ_mask, amount))
        if candidates.size:
            return radius, candidates
    return None


def grid_disc(center: tuple[int, int], radius: int, height: int, width: int):
    """Reference disc, the former one built from index grids: its bounding
    window clipped to the frame, and the pixels within radius there."""
    row, col = center
    r0, r1 = max(row - radius, 0), min(row + radius + 1, height)
    c0, c1 = max(col - radius, 0), min(col + radius + 1, width)
    rows = np.arange(r0, r1)[:, None]
    cols = np.arange(c0, c1)[None, :]
    return (slice(r0, r1), slice(c0, c1)), (rows - row) ** 2 + (cols - col) ** 2 <= radius * radius


def reference_frame(
    spec, video_index: int, frame_index: int, time_s: float, planted_stations, is_roi: bool
) -> maskio.ConfidenceFrame:
    """Reference frame generator, the former per-disc one: the frame that
    synth._generate_frame draws from the same generator, with one scalar
    draw per nodule site, missed nodule and false blob, each disc cut
    from its grid_disc window, and the whole frame's organ layout, nodule
    sites and morphology taken from the references above."""
    width, height = spec.frame_size
    noise = spec.noise
    rng = synth._rng(spec.seed, 2, video_index, frame_index)

    organ_masks, gt_labels = organ_layout(rng, width, height)
    sites = [nodule_site(organ_masks[organ]) for organ in range(8)]
    planted = []
    gt_pc = np.zeros((height, width), dtype=bool)
    if is_roi:
        for station, involved in zip(Station, planted_stations):
            if not involved:
                continue
            lo_n, hi_n = spec.nodules_per_positive_station
            count = int(rng.integers(lo_n, hi_n + 1))
            organs = _ORGANS_OF[station]
            for _ in range(count):
                organ = organs[int(rng.integers(0, len(organs)))]
                radius, candidates = sites[organ]
                position = int(candidates[rng.integers(0, candidates.size)])
                window, disc = grid_disc(divmod(position, width), radius, height, width)
                if (disc & ~organ_masks[organ][window]).any():
                    raise AssertionError("planted nodule escaped its organ mask")
                planted.append((window, disc))
                gt_pc[window] |= disc

    def morph(mask):
        amount = int(rng.integers(0, noise.boundary_morph + 1))
        if amount == 0:
            return mask
        if rng.integers(0, 2):
            return shift_dilate(mask, amount)
        return shift_erode(mask, amount)

    def confidence(mask, hi, lo):
        plateau = np.where(mask, hi, lo)
        if noise.confidence_jitter > 0:
            plateau = plateau + rng.normal(0.0, noise.confidence_jitter, size=mask.shape)
        return np.clip(plateau, 0.0, 1.0).astype(np.float32)

    pred_organ_masks = organ_masks
    if noise.boundary_morph > 0:
        pred_organ_masks = np.stack([morph(organ_masks[o]) for o in range(8)])
    organ_conf = np.stack(
        [confidence(pred_organ_masks[o], synth.HI_ORGAN, synth.LO_ORGAN) for o in range(8)]
    )

    pred_pc = np.zeros((height, width), dtype=bool)
    for window, disc in planted:
        if noise.miss_rate > 0 and rng.random() < noise.miss_rate:
            continue
        pred_pc[window] |= disc
    if noise.boundary_morph > 0 and pred_pc.any():
        pred_pc = morph(pred_pc)
    if noise.false_blob_rate > 0:
        for _ in range(int(rng.poisson(noise.false_blob_rate))):
            radius = int(rng.integers(1, 3))
            center = (int(rng.integers(0, height)), int(rng.integers(0, width)))
            window, disc = grid_disc(center, radius, height, width)
            pred_pc[window] |= disc
    pc_conf = confidence(pred_pc, synth.HI_PC, synth.LO_PC)

    roi_score = synth.ROI_HI if is_roi else synth.ROI_LO
    if noise.confidence_jitter > 0:
        roi_score = float(np.clip(roi_score + rng.normal(0.0, noise.confidence_jitter), 0.0, 1.0))
    return maskio.ConfidenceFrame(
        frame_index=frame_index,
        time_s=time_s,
        organ_conf=organ_conf,
        pc_conf=pc_conf,
        roi_score=roi_score,
        gt_labels=gt_labels,
        gt_pc=gt_pc.astype(np.uint8),
        gt_roi=is_roi,
    )


def naive_station_vector(frame, constants) -> tuple[bool, ...]:
    """Recompute the frame's station vector the slow way: flood-fill the
    thresholded carcinomatosis pixels, pick each blob's winning organ by
    (overlap count, overlap confidence sum, lowest code), and mark the
    winning organs' stations."""
    organ_thr = np.float32(constants.organ_confidence_threshold)
    pc_thr = np.float32(constants.pc_confidence_threshold)
    h, w = frame.pc_conf.shape
    pc_mask = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            pc_mask[r, c] = frame.pc_conf[r, c] >= pc_thr
    organ_pixels = []
    for o in range(8):
        organ_pixels.append(
            {
                (r, c)
                for r in range(h)
                for c in range(w)
                if frame.organ_conf[o, r, c] >= organ_thr
            }
        )
    stations = [False] * 6
    organ_station = [0, 1, 2, 2, 2, 3, 4, 5]
    for component in flood_components(pc_mask, connectivity=8):
        if len(component) < constants.min_nodule_pixels:
            continue
        best = None
        best_key = None
        for o in range(8):
            overlap = component & organ_pixels[o]
            if not overlap:
                continue
            conf_sum = sum(float(frame.organ_conf[o, r, c]) for r, c in sorted(overlap))
            key = (len(overlap), conf_sum)
            if best is None or key > best_key:
                best, best_key = o, key
        if best is not None:
            stations[organ_station[best]] = True
    return tuple(stations)


def disk_sweep_run(spec, constants) -> dict:
    """Reference sweep replicate: write the cohort of spec, read it back
    and evaluate all its videos as one run, with Dice and ROI accuracy
    off; returns the run entry (CarcinoError when every video
    fails)."""
    with tempfile.TemporaryDirectory() as workdir:
        cohort = load_cohort(generate_cohort(spec, workdir))
        report = evaluate_cohort(
            cohort,
            [EvalRun(label="all", video_ids=tuple(v.video_id for v in cohort.videos))],
            constants,
            compute_dice=False,
            compute_roi=False,
            mode="sweep",
        )
    return report["runs"][0]


def assess_frames(records, load, constants, want_dice: bool, want_roi: bool) -> dict:
    """Reference per-video loop: the former evaluation loop, which kept
    its own ROI filter, raster-size check, Dice thresholds and
    aggregation next to pipeline.score_video's. Returns {"prediction":
    {"stations", "fs", "its", "frames_used"} or {"error"}, "dice": per
    label lists or None, "roi": [tp, fp, tn, fn] or None}; raises
    CarcinoError on a raster-size change."""
    result: dict = {"prediction": None, "dice": None, "roi": None}
    dice_lists = {organ.slug: [] for organ in OrganClass}
    dice_lists["peritoneal_carcinomatosis"] = []
    roi_counts = [0, 0, 0, 0]  # tp, fp, tn, fn
    saw_roi_flag = False
    organ_threshold = np.float32(constants.organ_confidence_threshold)
    pc_threshold = np.float32(constants.pc_confidence_threshold)
    assessments = []
    shape = None
    for record in records:
        roi_pass = record.roi_score >= constants.roi_threshold
        if want_roi and record.gt_roi is not None:
            saw_roi_flag = True
            if roi_pass and record.gt_roi:
                roi_counts[0] += 1
            elif roi_pass:
                roi_counts[1] += 1
            elif not record.gt_roi:
                roi_counts[2] += 1
            else:
                roi_counts[3] += 1
        has_gt_raster = record.gt_labels is not None or record.gt_pc is not None
        need_dice = want_dice and has_gt_raster and record.gt_roi is not False
        if not roi_pass and not need_dice:
            continue
        frame = load(record)
        if shape is None:
            shape = (frame.height, frame.width)
        elif (frame.height, frame.width) != shape:
            raise CarcinoError(
                f"frame {record.frame_index}: raster size "
                f"{(frame.height, frame.width)} differs from {shape}"
            )
        if need_dice:
            if frame.gt_labels is not None:
                for organ in OrganClass:
                    pred = frame.organ_conf[organ] >= organ_threshold
                    gt = frame.gt_labels == organ + 1
                    dice_lists[organ.slug].append(metrics.dice(gt, pred))
            if frame.gt_pc is not None:
                pred = frame.pc_conf >= pc_threshold
                dice_lists["peritoneal_carcinomatosis"].append(metrics.dice(frame.gt_pc > 0, pred))
        if roi_pass:
            assessments.append(classify_frame(frame, constants))
    if assessments:
        stations = aggregate_video(assessments)
        fs = pipeline.compute_fs(stations, constants)
        its = pipeline.compute_its(fs, constants)
        result["prediction"] = {
            "stations": [bool(s) for s in stations],
            "fs": fs,
            "its": its.value,
            "frames_used": len(assessments),
        }
    else:
        result["prediction"] = {
            "error": f"no frame reached the ROI threshold {constants.roi_threshold}"
        }
    if want_dice:
        result["dice"] = dice_lists
    if want_roi and saw_roi_flag:
        result["roi"] = roi_counts
    return result
