"""Seeded synthetic cohorts with a known-ground-truth oracle.

Stands in for a clinical dataset at desk scale: organs are laid out as
non-overlapping ellipses/rectangles on a 3x3 grid, carcinomatosis
nodules are planted strictly inside the organs of truly involved
stations, and prediction rasters are derived from that truth through a
configurable noise model. With all noise at zero the prediction rasters
reproduce the truth exactly, so the scoring pipeline must recover the
planted score for every video.

All randomness is counter-based: every video and frame derives its own
generator from (seed, video index, frame index), so generation is
reproducible byte-for-byte under any scheduling.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import maskio
from .cohort import (
    EvalRun,
    _RUN_METRICS,
    _collect,
    _evaluate_run,
    _fmt,
    _nested_map,
    _pool_map,
    _require_a_scored_run,
    _Scored,
    _summary_value,
    evaluate_cohort,  # noqa: F401  unused here; perfbench's tracer self-test probes this binding
    save_cohort_index,
)
from .core import (
    FRAME_SAMPLING_INTERVAL,
    ScoringConstants,
    Station,
    _ORGANS_OF,
    _check_scalar_fields,
    _is_int,
    _known_fields,
    _mask64,
    _read_json,
    _rng,
)
from .errors import InvalidSpecError, NoAssessableFramesError
from .maskio import (
    ConfidenceFrame,
    FrameRecord,
    VideoGroundTruth,
    VideoManifest,
    canonical_json,
)
from .pipeline import score_frames

__all__ = [
    "NoiseSpec",
    "SynthSpec",
    "generate_cohort",
    "monte_carlo_sweep",
    "render_sweep_text",
    "render_sweep_csv",
]

# confidence plateaus used for prediction rasters derived from truth
HI_ORGAN, LO_ORGAN = 0.95, 0.05
HI_PC, LO_PC = 0.97, 0.02
ROI_HI, ROI_LO = 0.95, 0.05

SWEEP_SCHEMA = "carcino.sweep.v1"


@dataclass(frozen=True)
class NoiseSpec:
    """Noise applied to prediction rasters only; truth stays exact.

    confidence_jitter: std-dev of additive Gaussian noise on every
        confidence map (result clamped to [0, 1]).
    boundary_morph: maximum magnitude, in pixels, of a random dilation
        or erosion applied to each predicted mask; a SynthSpec bounds it
        by its larger frame side.
    false_blob_rate: expected number of spurious carcinomatosis blobs
        per frame (Poisson); a SynthSpec bounds it by its frame area.
    miss_rate: probability that a planted nodule is suppressed in a
        given frame.
    """

    confidence_jitter: float = 0.0
    boundary_morph: int = 0
    false_blob_rate: float = 0.0
    miss_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_scalar_fields(self, InvalidSpecError)
        if self.confidence_jitter < 0:
            raise InvalidSpecError("confidence_jitter must be >= 0")
        if self.boundary_morph < 0:
            raise InvalidSpecError("boundary_morph must be >= 0")
        if self.false_blob_rate < 0:
            raise InvalidSpecError("false_blob_rate must be >= 0")
        if not 0.0 <= self.miss_rate <= 1.0:
            raise InvalidSpecError("miss_rate must lie in [0, 1]")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic cohort; equal specs yield equal bytes."""

    seed: int
    n_videos: int = 20
    frame_size: tuple[int, int] = (64, 64)  # (width, height)
    frames_per_video: int = 8
    station_prevalence: tuple[float, ...] = (0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
    nodules_per_positive_station: tuple[int, int] = (1, 3)
    nonroi_frames_per_video: int = 0
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self) -> None:
        _check_scalar_fields(self, InvalidSpecError)
        for name in ("frame_size", "nodules_per_positive_station"):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and len(value) == 2 and all(map(_is_int, value))):
                raise InvalidSpecError(f"{name} must be two integers, got {value!r}")
        if not isinstance(self.station_prevalence, tuple) or any(
            isinstance(p, bool) or not isinstance(p, (int, float))
            for p in self.station_prevalence
        ):
            raise InvalidSpecError("station_prevalence must be a list of numbers")
        if not isinstance(self.noise, NoiseSpec):
            raise InvalidSpecError("noise must be an object of noise parameters")
        if self.n_videos < 1:
            raise InvalidSpecError("n_videos must be >= 1")
        width, height = self.frame_size
        if width < 16 or height < 16:
            raise InvalidSpecError("frame_size must be at least 16x16")
        if self.frames_per_video < 1:
            raise InvalidSpecError("frames_per_video must be >= 1")
        if len(self.station_prevalence) != 6:
            raise InvalidSpecError("station_prevalence needs 6 entries")
        if any(not 0.0 <= p <= 1.0 for p in self.station_prevalence):
            raise InvalidSpecError("station prevalences must lie in [0, 1]")
        lo, hi = self.nodules_per_positive_station
        if not 1 <= lo <= hi:
            raise InvalidSpecError("nodules_per_positive_station must satisfy 1 <= lo <= hi")
        if self.nonroi_frames_per_video < 0:
            raise InvalidSpecError("nonroi_frames_per_video must be >= 0")
        for name, value, what, bound in (
            ("boundary_morph", self.noise.boundary_morph, "size", max(width, height)),
            ("false_blob_rate", self.noise.false_blob_rate, "area", width * height),
            ("nodules_per_positive_station", hi, "area", width * height),
        ):
            if value > bound:
                raise InvalidSpecError(
                    f"{name} must be at most the frame {what} {bound}, got {value}"
                )

    def to_dict(self) -> dict:
        data = asdict(self)
        data["frame_size"] = list(self.frame_size)
        data["station_prevalence"] = list(self.station_prevalence)
        data["nodules_per_positive_station"] = list(self.nodules_per_positive_station)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SynthSpec":
        kwargs = dict(_known_fields(cls, data, InvalidSpecError, "spec"))
        if "seed" not in kwargs:
            raise InvalidSpecError("spec needs a 'seed'")
        for name in ("frame_size", "station_prevalence", "nodules_per_positive_station"):
            if isinstance(kwargs.get(name), list):
                kwargs[name] = tuple(kwargs[name])
        if isinstance(kwargs.get("noise"), dict):
            kwargs["noise"] = NoiseSpec(
                **_known_fields(NoiseSpec, kwargs["noise"], InvalidSpecError, "noise")
            )
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "SynthSpec":
        data = _read_json(path, InvalidSpecError)
        if not isinstance(data, dict):
            raise InvalidSpecError(f"{path}: expected a JSON object")
        return cls.from_dict(data)


def _square_pass(src: np.ndarray, dst: np.ndarray, combine: np.ufunc, erode: bool) -> None:
    """dst = each pixel of src combined with its two neighbours along
    axis 1; pixels beyond the frame count as false."""
    dst[:] = src
    combine(dst[:, 1:], src[:, :-1], out=dst[:, 1:])
    combine(dst[:, :-1], src[:, 1:], out=dst[:, :-1])
    if erode:
        dst[:, 0] = False
        dst[:, -1] = False


def _square_morph(mask: np.ndarray, amount: int, erode: bool) -> np.ndarray:
    """amount iterations of the 3x3 square. The square is separable, so
    each iteration is a 3-tap pass along the rows, then one along the
    columns."""
    combine = np.bitwise_and if erode else np.bitwise_or
    result = mask.copy()
    rows = np.empty_like(result)
    for _ in range(amount):
        _square_pass(result, rows, combine, erode)
        _square_pass(rows.T, result.T, combine, erode)
    return result


def binary_dilate(mask: np.ndarray, amount: int) -> np.ndarray:
    """Chebyshev dilation: amount iterations of the 8-neighbourhood."""
    return _square_morph(mask, amount, erode=False)


def binary_erode(mask: np.ndarray, amount: int) -> np.ndarray:
    """Chebyshev erosion: amount iterations of the 8-neighbourhood, with
    pixels beyond the frame counting as false."""
    return _square_morph(mask, amount, erode=True)


def _organ_cell(organ: int, width: int, height: int) -> tuple[int, int, int, int]:
    """Bounding cell of an organ on the 3x3 grid: (r0, r1, c0, c1)."""
    cell_w, cell_h = width // 3, height // 3
    col, row = organ % 3, organ // 3
    return row * cell_h, (row + 1) * cell_h, col * cell_w, (col + 1) * cell_w


class _OrganShape(NamedTuple):
    """One organ drawn as one shape in a frame of a given size: its inset
    cell (r0, r1, c0, c1), the organ's mask and uint8 labels (organ code
    + 1 on the organ, 0 elsewhere) on that cell, and where a nodule may
    be centred in it, as a disc radius and int32 flat frame indices in
    row-major order (a frame of 2**31 pixels would need 64 GiB for its
    organ planes alone). The arrays are read-only, since every frame of
    that size shares them."""

    bounds: tuple[int, int, int, int]
    cell: np.ndarray
    labels: np.ndarray
    radius: int
    candidates: np.ndarray


@lru_cache(maxsize=64)
def _organ_shape(organ: int, ellipse: bool, width: int, height: int) -> _OrganShape:
    """The organ fills its grid cell, inset by one pixel, with a
    rectangle or an inscribed ellipse.

    A disc of radius 2, 1 or 0 fits wherever the mask eroded by radius+1
    is still true (the +1 keeps one clear pixel to the boundary); the
    largest radius that fits somewhere wins, and the last resort is a
    radius-0 disc on any organ pixel. The organ has no pixel outside its
    cell, and binary_erode counts pixels beyond the array as false, so
    eroding the cell gives the same pixels as eroding the whole frame.
    """
    r0, r1, c0, c1 = _organ_cell(organ, width, height)
    r0, r1, c0, c1 = r0 + 1, r1 - 1, c0 + 1, c1 - 1
    if ellipse:
        # a pixel inside the ellipse has |row - cy| <= ry, which holds
        # for rows r0..r1-1 only (likewise for the columns), so the
        # formula is evaluated on the inset cell
        cy, cx = (r0 + r1 - 1) / 2.0, (c0 + c1 - 1) / 2.0
        ry, rx = max((r1 - r0) / 2.0, 0.5), max((c1 - c0) / 2.0, 0.5)
        rows = np.arange(r0, r1)[:, None]
        cols = np.arange(c0, c1)[None, :]
        cell = ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0
    else:
        cell = np.ones((r1 - r0, c1 - c0), dtype=bool)
    eroded = [cell]
    for _ in range(3):
        eroded.append(binary_erode(eroded[-1], 1))
    for radius, mask in ((2, eroded[3]), (1, eroded[2]), (0, eroded[1]), (0, cell)):
        rr, cc = np.nonzero(mask)
        if rr.size:  # always true for the cell, which holds an organ pixel
            break
    candidates = ((rr + r0) * width + (cc + c0)).astype(np.int32)
    labels = cell * np.uint8(organ + 1)
    for array in (cell, labels, candidates):
        array.flags.writeable = False
    return _OrganShape((r0, r1, c0, c1), cell, labels, radius, candidates)


def _organ_layout(
    rng: np.random.Generator, width: int, height: int
) -> tuple[np.ndarray, np.ndarray, list[_OrganShape]]:
    """True masks for all 8 organs, (8, H, W) bool, pairwise disjoint;
    the ground-truth label raster, (H, W) uint8 with organ code + 1 on
    each organ, copied cell by cell; and each organ's shape, the 8 drawn
    with one rng.integers(0, 2, size=8). The ninth cell stays background."""
    masks = np.zeros((8, height, width), dtype=bool)
    labels = np.zeros((height, width), dtype=np.uint8)
    flags = rng.integers(0, 2, size=8).tolist()
    shapes = [_organ_shape(organ, bool(flag), width, height) for organ, flag in enumerate(flags)]
    for organ, shape in enumerate(shapes):
        r0, r1, c0, c1 = shape.bounds
        masks[organ, r0:r1, c0:c1] = shape.cell
        labels[r0:r1, c0:c1] = shape.labels
    return masks, labels, shapes


def _disc_offset_table() -> np.ndarray:
    """(3, 13, 2) row and column offsets of the pixels within radius 0, 1
    and 2 of a disc's centre, read-only. A radius-2 disc has 13 pixels;
    a smaller disc fills its other slots with its centre, (0, 0)."""
    span = np.arange(-2, 3)
    squared = span[:, None] ** 2 + span[None, :] ** 2
    table = np.zeros((3, 13, 2), dtype=np.intp)
    for radius in range(3):
        offsets = np.argwhere(squared <= radius * radius) - 2
        table[radius, : len(offsets)] = offsets
    table.flags.writeable = False
    return table


_DISC_OFFSETS = _disc_offset_table()


def _disc_pixels(discs: np.ndarray, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices, each (n, 13), of the pixels of n discs,
    given as integer array rows that start (radius, row, col), with radius
    0-2 and the centre in the frame; indexing a frame with them sets the
    discs' pixels, some more than once. A pixel beyond the frame edge is
    clipped onto it, which lands on a pixel of the same disc, as clipping
    only brings it nearer the centre."""
    offsets = _DISC_OFFSETS[discs[:, 0]]
    rows = np.minimum(np.maximum(discs[:, 1:2] + offsets[..., 0], 0), height - 1)
    cols = np.minimum(np.maximum(discs[:, 2:3] + offsets[..., 1], 0), width - 1)
    return rows, cols


def _morph(rng: np.random.Generator, mask: np.ndarray, max_amount: int) -> np.ndarray:
    amount = int(rng.integers(0, max_amount + 1))
    if amount == 0:
        return mask
    if rng.integers(0, 2):
        return binary_dilate(mask, amount)
    return binary_erode(mask, amount)


def _confidence_map(
    rng: np.random.Generator,
    mask: np.ndarray,
    hi: float,
    lo: float,
    jitter: float,
    out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Write the confidence planes of mask, (H, W) or (8, H, W), into the
    float32 array out of its shape: the float64 plateau (hi on the mask,
    lo off it) plus Gaussian noise of std-dev jitter, clipped to [0, 1],
    then cast. The noise is drawn plane by plane into scratch, a float64
    (H, W) array. Without noise a plane is its plateau, which lies in
    [0, 1], cast."""
    if jitter == 0:
        out[...] = lo
        np.copyto(out, hi, where=mask)
        return
    for plane in np.ndindex(mask.shape[:-2]):
        # rng.normal(0.0, jitter) returns 0.0 + jitter * z; the 0.0 only turns
        # a -0.0 into +0.0, and adding the positive plateau gives the same sum
        rng.standard_normal(out=scratch)
        scratch *= jitter
        np.add(scratch, hi, out=scratch, where=mask[plane])
        np.add(scratch, lo, out=scratch, where=~mask[plane])
        np.clip(scratch, 0.0, 1.0, out=out[plane])


def _generate_frame(
    spec: SynthSpec,
    video_index: int,
    frame_index: int,
    time_s: float,
    planted_stations: Sequence[bool],
    is_roi: bool,
    scratch: np.ndarray,
    organ_conf: np.ndarray,
    pc_conf: np.ndarray,
) -> ConfidenceFrame:
    """Truth and prediction rasters for one frame.

    The frame generator draws in this order, each step only where the
    frame or its noise fields call for it: (1) the 8 layout flags, in
    one call; (2) per involved station of an ROI frame, its nodule
    count, then an organ and a site per nodule for the three-organ
    station, or one batch of sites for the others; (3) organ morph;
    (4) organ planes; (5) misses; (6) PC morph; (7) blobs; (8) PC plane;
    (9) ROI. A batched draw takes the values, and leaves the generator
    in the state, of the scalar draws it replaces, as its range is
    fixed beforehand. The noise is drawn plane by plane into scratch, a
    float64 (H, W) array, and the confidence maps are written into
    organ_conf, (8, H, W), and pc_conf, (H, W), both float32. Returns
    those maps and the relevance score with the ground-truth rasters and
    relevance flag.
    """
    width, height = spec.frame_size
    noise = spec.noise
    rng = _rng(spec.seed, 2, video_index, frame_index)

    organ_masks, gt_labels, shapes = _organ_layout(rng, width, height)

    planted = []  # (radius, row, col, organ) of each nodule
    if is_roi:
        lo_n, hi_n = spec.nodules_per_positive_station
        for station, involved in zip(Station, planted_stations):
            if not involved:
                continue
            count = int(rng.integers(lo_n, hi_n + 1))
            organs = _ORGANS_OF[station]
            if len(organs) == 1:  # integers(0, 1) draws nothing: the sites in one call
                shape = shapes[organs[0]]
                sites = shape.candidates[rng.integers(0, shape.candidates.size, size=count)]
                planted += [(shape.radius, *divmod(p, width), organs[0]) for p in sites.tolist()]
                continue
            for _ in range(count):
                # the candidate's range depends on the organ just drawn
                organ = organs[int(rng.integers(0, len(organs)))]
                shape = shapes[organ]
                position = int(shape.candidates[rng.integers(0, shape.candidates.size)])
                planted.append((shape.radius, *divmod(position, width), organ))
    nodules = np.array(planted, dtype=np.intp).reshape(-1, 4)
    rows, cols = _disc_pixels(nodules, height, width)
    if (gt_labels[rows, cols] != nodules[:, 3:] + 1).any():
        raise AssertionError("planted nodule escaped its organ mask")
    gt_pc = np.zeros((height, width), dtype=np.uint8)
    gt_pc[rows, cols] = 1

    # prediction rasters, derived from truth through the noise model
    pred_organ_masks = organ_masks
    if noise.boundary_morph > 0:
        pred_organ_masks = np.stack(
            [_morph(rng, organ_masks[o], noise.boundary_morph) for o in range(8)]
        )
    jitter = noise.confidence_jitter
    _confidence_map(rng, pred_organ_masks, HI_ORGAN, LO_ORGAN, jitter, organ_conf, scratch)

    pred_pc = np.zeros((height, width), dtype=bool)
    if noise.miss_rate > 0:
        kept = rng.random(len(nodules)) >= noise.miss_rate
        rows, cols = rows[kept], cols[kept]
    pred_pc[rows, cols] = True
    if noise.boundary_morph > 0 and pred_pc.any():
        pred_pc = _morph(rng, pred_pc, noise.boundary_morph)
    if noise.false_blob_rate > 0:
        count = int(rng.poisson(noise.false_blob_rate))
        blobs = rng.integers((1, 0, 0), (3, height, width), size=(count, 3))
        pred_pc[_disc_pixels(blobs, height, width)] = True
    _confidence_map(rng, pred_pc, HI_PC, LO_PC, jitter, pc_conf, scratch)

    roi_base = ROI_HI if is_roi else ROI_LO
    roi_score = roi_base
    if jitter > 0:
        roi_score = float(np.clip(roi_base + rng.normal(0.0, jitter), 0.0, 1.0))

    return ConfidenceFrame(
        frame_index=frame_index,
        time_s=time_s,
        organ_conf=organ_conf,
        pc_conf=pc_conf,
        roi_score=roi_score,
        gt_labels=gt_labels,
        gt_pc=gt_pc,
        gt_roi=is_roi,
    )


def _planted_stations(spec: SynthSpec, video_index: int) -> tuple[bool, ...]:
    rng = _rng(spec.seed, 1, video_index)
    draws = rng.random(6)
    return tuple(bool(draws[s] < spec.station_prevalence[s]) for s in range(6))


def _video_id(video_index: int) -> str:
    return f"v{video_index:04d}"


def _roi_segment_end(spec: SynthSpec) -> float:
    """End time of the video's single ROI segment, which starts at 0."""
    return FRAME_SAMPLING_INTERVAL * (spec.frames_per_video - 1)


def _video_frames(
    spec: SynthSpec, video_index: int, stations: Sequence[bool]
) -> Iterator[ConfidenceFrame]:
    """The frames of one video, generated one at a time: the ROI frames,
    one per sampling interval from the start of the ROI segment, then the
    non-ROI frames after it. The confidence maps of every frame are
    written into one pair of arrays, so a frame is valid only until the
    next one is drawn."""
    width, height = spec.frame_size
    scratch = np.empty((height, width))  # the noise of one plane
    organ_conf = np.empty((8, height, width), dtype=np.float32)
    pc_conf = np.empty((height, width), dtype=np.float32)
    for frame_index in range(spec.frames_per_video + spec.nonroi_frames_per_video):
        yield _generate_frame(
            spec,
            video_index,
            frame_index,
            frame_index * FRAME_SAMPLING_INTERVAL,  # the non-ROI frames keep the spacing
            stations,
            frame_index < spec.frames_per_video,
            scratch,
            organ_conf,
            pc_conf,
        )


def _generate_video(spec: SynthSpec, video_index: int, video_dir: Path) -> None:
    frames_dir = video_dir / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    stations = _planted_stations(spec, video_index)

    records: list[FrameRecord] = []
    for frame in _video_frames(spec, video_index, stations):
        stem = f"f{frame.frame_index:04d}"
        paths = {
            "organ_conf": f"frames/{stem}.organ.msk",
            "pc_conf": f"frames/{stem}.pc.msk",
            "gt_labels": f"frames/{stem}.gtlab.msk",
            "gt_pc": f"frames/{stem}.gtpc.msk",
        }
        maskio.write_raster(frame.organ_conf, video_dir / paths["organ_conf"])
        maskio.write_raster(frame.pc_conf[np.newaxis], video_dir / paths["pc_conf"])
        maskio.write_raster(frame.gt_labels[np.newaxis], video_dir / paths["gt_labels"])
        maskio.write_raster(frame.gt_pc[np.newaxis], video_dir / paths["gt_pc"])
        records.append(
            FrameRecord(
                frame_index=frame.frame_index,
                time_s=frame.time_s,
                roi_score=frame.roi_score,
                gt_roi=frame.gt_roi,
                **paths,
            )
        )

    manifest = VideoManifest(
        video_id=_video_id(video_index),
        frames=tuple(records),
        ground_truth=VideoGroundTruth(stations),
        roi_segments=((0.0, _roi_segment_end(spec)),),
        base_dir=video_dir,
    )
    maskio.save_manifest(manifest, video_dir / "manifest.json")


def generate_cohort(spec: SynthSpec, out_dir: str | Path, jobs: int = 1) -> Path:
    """Write a full synthetic cohort under out_dir; returns the index path.

    Identical specs produce byte-identical directory trees, whatever the
    jobs count: with jobs > 1 a process pool writes the videos.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids = [_video_id(i) for i in range(spec.n_videos)]
    _pool_map(
        _generate_video,
        jobs,
        repeat(spec),
        range(spec.n_videos),
        [out_dir / "videos" / video_id for video_id in ids],
    )
    entries = [(video_id, f"videos/{video_id}/manifest.json") for video_id in ids]
    index_path = out_dir / "index.json"
    save_cohort_index(f"synth-{_mask64(spec.seed)}", entries, index_path)
    (out_dir / "spec.json").write_text(canonical_json(spec.to_dict()), encoding="utf-8")
    return index_path


# --- Monte Carlo noise sweep -----------------------------------------------


def _replicate_seed(seed: int, level_index: int, replicate: int) -> int:
    return int(
        np.random.SeedSequence([_mask64(seed), 3, level_index, replicate]).generate_state(
            1, np.uint64
        )[0]
    )


def _noise_level(param: str, level: float) -> int | float:
    """A sweep level as the value of the noise field param, cast to the
    field's declared type; an int field takes whole numbers only."""
    declared = next(f.type for f in fields(NoiseSpec) if f.name == param)
    if declared in ("int", int):
        if not float(level).is_integer():
            raise InvalidSpecError(f"{param} takes whole-number levels, got {level}")
        return int(level)
    return float(level)


def _checked_frame(frame: ConfidenceFrame) -> ConfidenceFrame:
    """A generated frame after the value checks a reader applies to its
    confidence rasters; the frame checked their shapes and dtypes."""
    for conf in (frame.organ_conf, frame.pc_conf):
        maskio._validate_values(conf, maskio.DTYPE_CONFIDENCE)
    return frame


def _sweep_video(task: tuple[SynthSpec, int, ScoringConstants]) -> _Scored:
    """Generate one video of a replicate cohort and score it in memory,
    with Dice and ROI accuracy off. A video no frame of which reaches the
    ROI threshold fails; any other error propagates."""
    spec, video_index, constants = task
    video_id = _video_id(video_index)
    frames = _video_frames(spec, video_index, _planted_stations(spec, video_index))
    try:
        video, _ = score_frames(video_id, frames, _checked_frame, constants)
    except NoAssessableFramesError as exc:
        return _Scored(None, str(exc))
    return _Scored(video.station_positive)


# sweep key -> run-entry path of each metric a sweep level reports, taken
# from the run table; the keys with a path of their own are the CSV
# columns, in this order
_SWEEP_METRICS = {
    "fs_rmse": _RUN_METRICS["fs_rmse"],
    "fs_rmse_normalized": _RUN_METRICS["fs_rmse_normalized"],
    "station_f1_average": _RUN_METRICS["stations_average"]["f1"],
    "its_f1_average": _RUN_METRICS["its_average"]["f1"],
    "stations_f1": {slug: paths["f1"] for slug, paths in _RUN_METRICS["stations"].items()},
}


def _replicate_run(
    spec: SynthSpec, scored: Sequence[_Scored], constants: ScoringConstants
) -> dict:
    """The single run over all videos of one replicate cohort, built from
    the per-video results in video order, as evaluate_cohort builds it
    from the written cohort."""
    ids = [_video_id(i) for i in range(spec.n_videos)]
    run = _evaluate_run(
        EvalRun(label="all", video_ids=tuple(ids)),
        dict(zip(ids, scored)),
        {vid: VideoGroundTruth(_planted_stations(spec, i)) for i, vid in enumerate(ids)},
        constants,
        "frame",
    )
    _require_a_scored_run([run])
    return run


def monte_carlo_sweep(
    base_spec: SynthSpec,
    param: str,
    levels: Sequence[float],
    replicates: int,
    constants: ScoringConstants | None = None,
    jobs: int = 1,
) -> dict:
    """Propagate frame-level noise to video-level error.

    For every noise level and replicate: derive a fresh seed, generate a
    cohort with the noise parameter set to the level, score and evaluate
    it (single run over all videos), and collect normalized RMSE,
    per-station F1, and indication F1. Returns per-level summaries plus
    the raw replicate values.

    The replicate cohorts are generated and scored in memory, frame by
    frame; nothing is written. With jobs > 1 one process pool scores the
    videos of every replicate; results are the same for any jobs count.
    """
    noise_fields = {f.name for f in fields(NoiseSpec)}
    if param not in noise_fields:
        raise InvalidSpecError(f"unknown noise parameter {param!r}; one of {sorted(noise_fields)}")
    if replicates < 1:
        raise InvalidSpecError("replicates must be >= 1")
    if not levels:
        raise InvalidSpecError("need at least one noise level")
    constants = constants or ScoringConstants()
    specs = [
        [
            replace(
                base_spec,
                seed=_replicate_seed(base_spec.seed, level_index, replicate),
                noise=replace(base_spec.noise, **{param: _noise_level(param, level)}),
            )
            for replicate in range(replicates)
        ]
        for level_index, level in enumerate(levels)
    ]
    tasks = [
        (spec, video_index, constants)
        for level_specs in specs
        for spec in level_specs
        for video_index in range(spec.n_videos)
    ]
    assessed = iter(_pool_map(_sweep_video, jobs, tasks))

    level_entries = []
    for level, level_specs in zip(levels, specs):
        runs = [
            _replicate_run(spec, [next(assessed) for _ in range(spec.n_videos)], constants)
            for spec in level_specs
        ]
        values = _nested_map(lambda path: _collect(runs, *path), _SWEEP_METRICS)
        level_entries.append(
            {
                "level": float(level),
                "replicates": replicates,
                "values": values,
                "summary": _nested_map(_summary_value, values),
            }
        )
    return {
        "schema": SWEEP_SCHEMA,
        "kind": "monte_carlo_sweep",
        "param": param,
        "replicates": replicates,
        "base_spec": base_spec.to_dict(),
        "constants": constants.to_dict(),
        "levels": level_entries,
    }


def render_sweep_csv(report: dict) -> str:
    """Per-replicate CSV of the sweep, one row per (level, replicate);
    undefined values become empty cells. Suitable for plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = [key for key, path in _SWEEP_METRICS.items() if isinstance(path, tuple)]
    writer.writerow(["param", "level", "replicate", *columns])
    for entry in report["levels"]:
        values = entry["values"]
        for i in range(entry["replicates"]):
            row = [report["param"], entry["level"], i]
            for column in columns:
                value = values[column][i]
                row.append("" if value is None else value)
            writer.writerow(row)
    return buf.getvalue()


def render_sweep_text(report: dict) -> str:
    """Plain-text table of the sweep: one row per noise level."""
    lines = [
        f"Noise sweep over {report['param']} "
        f"({report['replicates']} replicate(s) per level)",
        "",
        f"{'level':>10}  {'norm. RMSE':>20}  {'station F1 avg':>20}  {'ItS F1 avg':>20}",
    ]
    for entry in report["levels"]:
        summary = entry["summary"]
        lines.append(
            f"{entry['level']:>10.4g}  {_fmt(summary['fs_rmse_normalized'], digits=4):>20}  "
            f"{_fmt(summary['station_f1_average'], digits=4):>20}  "
            f"{_fmt(summary['its_f1_average'], digits=4):>20}"
        )
    return "\n".join(lines) + "\n"
