"""Bit-exact raster and manifest I/O.

This is the ingestion boundary between an external segmentation model
and the scoring engine. Confidence maps and label masks travel in a
minimal binary container ("MSK1") instead of an image codec so that
float confidences survive untouched: thresholding at e.g. 0.70 must not
be perturbed by quantization.

MSK1 byte layout (little-endian):

    offset  size  field
    0       4     magic, b"MSK1"
    4       4     width,  uint32
    8       4     height, uint32
    12      1     channels, uint8
    13      1     dtype code, uint8 (0 = uint8 labels, 1 = float32 confidence)
    14      ...   payload, channel-planar, row-major, exactly
                  width * height * channels * itemsize bytes

Confidence payloads must lie in [0, 1]. Label payloads must lie in
{0..8}: 0 is background, 1..8 is the organ code + 1; binary masks use
{0, 1}. Violations are rejected, never clamped.

A video manifest is one JSON document listing the per-frame raster
paths (relative to the manifest's own directory), the per-frame ROI
relevance score, and optionally the clinical ground truth for the video.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .core import Indication, ScoringConstants, STATION_SLUGS, _read_json, compute_fs, compute_its
from .errors import CarcinoError, ManifestError, MaskFormatError

__all__ = [
    "MAGIC",
    "DTYPE_LABEL",
    "DTYPE_CONFIDENCE",
    "HEADER_SIZE",
    "write_raster",
    "read_raster",
    "decode_raster",
    "ConfidenceFrame",
    "FrameRecord",
    "VideoGroundTruth",
    "VideoManifest",
    "load_manifest",
    "save_manifest",
    "manifest_from_dict",
    "manifest_to_dict",
    "load_frame",
    "frame_loader",
    "canonical_json",
]

MAGIC = b"MSK1"
DTYPE_LABEL = 0
DTYPE_CONFIDENCE = 1
_ORGAN_PLANES = 8
MAX_LABEL = _ORGAN_PLANES  # labels are organ code + 1

_HEADER = struct.Struct("<4sIIBB")
HEADER_SIZE = _HEADER.size  # 14 bytes

_NUMPY_DTYPES = {DTYPE_LABEL: np.dtype("u1"), DTYPE_CONFIDENCE: np.dtype("<f4")}
_ONE_BITS = 0x3F800000  # the float32 1.0 as an unsigned integer
_STREAM_CHUNK = 1 << 16  # bytes per read from a stream of unknown length
_MANIFEST_CONSTANTS = ScoringConstants()  # the rules a manifest's ground truth is scored by
_FRAME_RASTERS = (  # field, dtype code, channels; a one-channel field is an (H, W) plane
    ("organ_conf", DTYPE_CONFIDENCE, _ORGAN_PLANES), ("pc_conf", DTYPE_CONFIDENCE, 1),
    ("gt_labels", DTYPE_LABEL, 1), ("gt_pc", DTYPE_LABEL, 1),
)


def _dtype_code_of(arr: np.ndarray) -> int:
    if arr.dtype == np.uint8:
        return DTYPE_LABEL
    if arr.dtype == np.float32:
        return DTYPE_CONFIDENCE
    raise CarcinoError(
        f"raster dtype must be uint8 (labels) or float32 (confidence), got {arr.dtype}"
    )


def _validate_values(arr: np.ndarray, dtype_code: int, context: str = "") -> None:
    where = f" in {context}" if context else ""
    if dtype_code == DTYPE_CONFIDENCE:
        # read as unsigned integers, the float32 values +0.0 to 1.0 are
        # the bit patterns 0 to _ONE_BITS, so one max() passes every valid
        # payload without a -0.0; the float test decides the rest. A NaN
        # propagates through min() and max() and fails it; isfinite runs
        # only to pick the message
        bits = arr.view(arr.dtype.byteorder + "u4")
        if bits.max() > _ONE_BITS and not (arr.min() >= 0.0 and arr.max() <= 1.0):
            if not np.isfinite(arr).all():
                raise MaskFormatError(f"non-finite confidence value{where}")
            raise MaskFormatError(f"confidence value outside [0, 1]{where}")
    elif arr.max() > MAX_LABEL:
        raise MaskFormatError(f"label value above {MAX_LABEL}{where}")


def _validate_array(arr: np.ndarray) -> int:
    if not isinstance(arr, np.ndarray) or arr.ndim != 3:
        raise CarcinoError("raster must be a (channels, height, width) array")
    channels, height, width = arr.shape
    if channels < 1 or height < 1 or width < 1:
        raise CarcinoError("raster dimensions must all be >= 1")
    if channels > 255:
        raise CarcinoError("raster channel count must fit in uint8")
    code = _dtype_code_of(arr)
    _validate_values(arr, code)
    return code


def write_raster(arr: np.ndarray, dest: str | Path | BinaryIO) -> int:
    """Write an array as an MSK1 file; returns the byte count written.

    Invariant violations raise before anything is written. The payload
    is written from the array's own buffer, without a bytes copy.
    """
    code = _validate_array(arr)
    channels, height, width = arr.shape
    header = _HEADER.pack(MAGIC, width, height, channels, code)
    payload = np.ascontiguousarray(arr.astype(_NUMPY_DTYPES[code], copy=False))
    data = memoryview(payload).cast("B")
    if hasattr(dest, "write"):
        dest.write(header)
        dest.write(data)
    else:
        with open(dest, "wb") as fh:
            fh.write(header)
            fh.write(data)
    return len(header) + data.nbytes


def _check_header(
    header: bytes | memoryview, size: int | None, where: str
) -> tuple[int, tuple[int, int, int]]:
    """Validate an MSK1 header against the size of the whole file.

    header holds the file's first HEADER_SIZE bytes, or all it has; size
    is the file's length in bytes, or None for a stream, whose reader
    checks the payload length. Returns the dtype code and (channels,
    height, width). Every header check lives here, for the same messages.
    """
    if len(header) < HEADER_SIZE:
        raise MaskFormatError(f"file shorter than the {HEADER_SIZE}-byte header{where}")
    magic, width, height, channels, code = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise MaskFormatError(f"bad magic {magic!r}{where}")
    if code not in _NUMPY_DTYPES:
        raise MaskFormatError(f"unknown dtype code {code}{where}")
    if width < 1 or height < 1 or channels < 1:
        raise MaskFormatError(f"zero-sized raster dimension{where}")
    if size is not None:
        expected = width * height * channels * _NUMPY_DTYPES[code].itemsize
        payload = size - HEADER_SIZE
        if payload < expected:
            raise MaskFormatError(f"payload is {payload} bytes, expected {expected}{where}")
        if payload > expected:
            raise MaskFormatError(f"{payload - expected} trailing bytes after payload{where}")
    return code, (channels, height, width)


def decode_raster(blob: bytes | bytearray | memoryview, context: str = "") -> np.ndarray:
    """Parse MSK1 bytes (any bytes-like object) into a (channels,
    height, width) array."""
    where = f" in {context}" if context else ""
    blob = memoryview(blob).cast("B")
    code, shape = _check_header(blob, len(blob), where)
    arr = np.frombuffer(blob, dtype=_NUMPY_DTYPES[code], offset=HEADER_SIZE).reshape(shape)
    arr = arr.copy()  # frombuffer yields a view of the caller's buffer
    _validate_values(arr, code, context)
    return arr


def _read_file(path: str, into: np.ndarray | None = None) -> np.ndarray:
    """Read an MSK1 file with one copy of its payload: the header is
    checked against the file size before the array is allocated, then
    the payload is read straight into it. When into is a writeable
    C-contiguous array of the shape and dtype the header declares, the
    payload goes into it and into is returned; otherwise the array is
    new."""
    where = f" in {path}"
    with open(path, "rb", buffering=0) as fh:
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):  # a pipe or device has no size to check
            return _read_stream(fh, path)
        header = fh.read(HEADER_SIZE)
        code, shape = _check_header(header, st.st_size, where)
        dtype = _NUMPY_DTYPES[code]
        if (
            into is not None
            and into.shape == shape
            and into.dtype == dtype
            and into.flags.c_contiguous
            and into.flags.writeable
        ):
            arr = into
        else:
            arr = np.empty(shape, dtype=dtype)
        view = memoryview(arr).cast("B")
        filled = 0
        while filled < view.nbytes:
            n = fh.readinto(view[filled:])
            if not n:  # the file shrank after fstat
                raise MaskFormatError(
                    f"payload is {filled} bytes, expected {view.nbytes}{where}"
                )
            filled += n
    _validate_values(arr, code, path)
    return arr


def _read_stream(stream: BinaryIO, context: str = "") -> np.ndarray:
    """Decode an MSK1 raster from a stream of unknown length: the header,
    then at most one byte past the payload it declares, in chunks, so
    memory follows the bytes that arrive, not the header's claim."""
    where = f" in {context}" if context else ""
    blob = bytearray()

    def fill(end: int) -> None:  # read on to end bytes, or to the end of the stream
        while len(blob) < end and (chunk := stream.read(min(end - len(blob), _STREAM_CHUNK))):
            blob.extend(chunk)

    fill(HEADER_SIZE)
    code, shape = _check_header(blob, None, where)
    end = HEADER_SIZE + math.prod(shape) * _NUMPY_DTYPES[code].itemsize
    fill(end + 1)
    if len(blob) > end:
        raise MaskFormatError(f"trailing bytes after payload{where}")
    return decode_raster(blob, context)


def read_raster(source: str | os.PathLike | bytes | BinaryIO) -> np.ndarray:
    """Read an MSK1 raster from a path, a bytes-like object, or a binary
    stream."""
    if isinstance(source, (str, os.PathLike)):
        return _read_file(os.fspath(source))
    if hasattr(source, "read"):
        return _read_stream(source)
    return decode_raster(source)


# --- frames and manifests ------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConfidenceFrame:
    """Per-frame model output: 8 organ confidence planes, one
    carcinomatosis confidence plane, and the frame relevance score.

    Ground-truth rasters ride along when available (label map with organ
    code + 1, binary carcinomatosis mask, frame relevance flag).

    Built, a frame checks its planes' shapes and dtypes, not their values
    (the raster readers check those): (8, H, W) organ planes, (H, W) other
    planes, float32 confidences and uint8 ground truth. It checks its
    index, time and relevance score by the rules of a manifest entry.
    """

    frame_index: int
    time_s: float
    organ_conf: np.ndarray  # (8, H, W) float32
    pc_conf: np.ndarray  # (H, W) float32
    roi_score: float
    gt_labels: np.ndarray | None = None  # (H, W) uint8, 0 = background
    gt_pc: np.ndarray | None = None  # (H, W) uint8, values {0, 1}
    gt_roi: bool | None = None

    def __post_init__(self) -> None:
        _check_frame_scalars(
            self.frame_index, self.time_s, self.roi_score, f"frame {self.frame_index!r}"
        )
        for name, code, channels in _FRAME_RASTERS:
            plane = getattr(self, name)
            if plane is None and name.startswith("gt_"):
                continue  # ground truth is optional
            if not isinstance(plane, np.ndarray) or plane.dtype != _NUMPY_DTYPES[code]:
                got = getattr(plane, "dtype", type(plane).__name__)
                raise CarcinoError(
                    f"frame {self.frame_index}: {name} is {got}, not {_NUMPY_DTYPES[code]}"
                )
            if channels > 1 and (plane.ndim != 3 or plane.shape[0] != channels):
                raise CarcinoError(
                    f"frame {self.frame_index}: {name} is {plane.shape}, not ({channels}, H, W)"
                )
            if channels == 1 and plane.shape != self.organ_conf.shape[1:]:
                raise CarcinoError(
                    f"frame {self.frame_index}: {name} is {plane.shape}, "
                    f"the organ planes are {self.organ_conf.shape[1:]}"
                )

    @property
    def height(self) -> int:
        return self.pc_conf.shape[0]

    @property
    def width(self) -> int:
        return self.pc_conf.shape[1]


@dataclass(frozen=True)
class FrameRecord:
    """Manifest entry for one frame; raster paths are manifest-relative."""

    frame_index: int
    time_s: float
    organ_conf: str
    pc_conf: str
    roi_score: float
    gt_labels: str | None = None
    gt_pc: str | None = None
    gt_roi: bool | None = None


@dataclass(frozen=True)
class VideoGroundTruth:
    """Clinical reference for one video: its six station flags. The total
    score and the indication follow from them by the default scoring
    rules (core.compute_fs and core.compute_its at ScoringConstants()),
    which the manifest format fixes."""

    stations: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.stations) != 6:
            raise ManifestError("ground truth needs exactly 6 station flags")

    @property
    def fs(self) -> int:
        return compute_fs(self.stations, _MANIFEST_CONSTANTS)

    @property
    def its(self) -> Indication:
        return compute_its(self.fs, _MANIFEST_CONSTANTS)


@dataclass(frozen=True)
class VideoManifest:
    video_id: str
    frames: tuple[FrameRecord, ...]
    ground_truth: VideoGroundTruth | None = None
    roi_segments: tuple[tuple[float, float], ...] | None = None
    base_dir: Path | None = None  # directory the raster paths are relative to


def _require(mapping: dict, field: str, context: str):
    if field not in mapping:
        raise ManifestError(f"{context}: missing field {field!r}")
    return mapping[field]


def _as_number(value, field: str, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ManifestError(f"{context}: field {field!r} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ManifestError(f"{context}: field {field!r} must be a finite number")
    return number


def _encoded(value: str, where: str, encode: Callable[[str], bytes] = str.encode) -> bytes:
    """encode(value), UTF-8 by default, as text output needs; ManifestError
    naming where if it fails, as it does for the lone surrogate that a
    JSON escape such as "\\ud800" parses into."""
    try:
        return encode(value)
    except UnicodeEncodeError as exc:
        raise ManifestError(f"{where} must not contain {value[exc.start]!r}") from None


def _check_path(value: str, where: str) -> None:
    """ManifestError unless value can name a file: os.fsencode takes it,
    a surrogate escape of a file-name byte (U+DC80-U+DCFF on a UTF-8 file
    system) standing for that byte, and it holds no NUL."""
    if b"\x00" in _encoded(value, where, os.fsencode):
        raise ManifestError(f"{where} must not contain a NUL character")


def _check_frame_scalars(frame_index, time_s, roi_score, context: str) -> tuple[int, float, float]:
    """A frame's index (an integer), time (a finite number) and relevance
    score (a number in [0, 1]), with the numbers as floats; ManifestError
    for any other value."""
    if isinstance(frame_index, bool) or not isinstance(frame_index, int):
        raise ManifestError(f"{context}: 'frame_index' must be an integer")
    time_s = _as_number(time_s, "time_s", context)
    roi_score = _as_number(roi_score, "roi_score", context)
    if not 0.0 <= roi_score <= 1.0:
        raise ManifestError(f"{context}: roi_score {roi_score} outside [0, 1]")
    return frame_index, time_s, roi_score


def _parse_ground_truth(data: dict, context: str) -> VideoGroundTruth:
    stations_map = _require(data, "stations", context)
    if not isinstance(stations_map, dict):
        raise ManifestError(f"{context}: 'stations' must be an object")
    extra = set(stations_map) - set(STATION_SLUGS)
    if extra:
        raise ManifestError(f"{context}: unknown station key(s) {sorted(extra)}")
    flags = []
    for slug in STATION_SLUGS:
        value = _require(stations_map, slug, f"{context}.stations")
        if not isinstance(value, bool):
            raise ManifestError(f"{context}: station {slug!r} must be a boolean")
        flags.append(value)
    fs = _require(data, "fs", context)
    if isinstance(fs, bool) or not isinstance(fs, int):
        raise ManifestError(f"{context}: 'fs' must be an integer")
    its_raw = _require(data, "its", context)
    try:
        its = Indication(its_raw)
    except ValueError:
        raise ManifestError(f"{context}: unknown indication {its_raw!r}") from None
    truth = VideoGroundTruth(tuple(flags))
    if fs != truth.fs:
        raise ManifestError(f"fs is {fs} but {truth.fs} station points are flagged")
    if its is not truth.its:
        raise ManifestError(
            f"its is {its.value} but fs {fs} implies {truth.its.value}"
        )
    return truth


def _parse_frame(data: dict, context: str) -> FrameRecord:
    frame_index, time_s, roi_score = _check_frame_scalars(
        *(_require(data, name, context) for name in ("frame_index", "time_s", "roi_score")),
        context,
    )
    # the prediction rasters are required, the ground-truth ones optional
    paths = {name: _require(data, name, context) for name in ("organ_conf", "pc_conf")}
    paths.update(
        (name, data[name]) for name in ("gt_labels", "gt_pc") if data.get(name) is not None
    )
    for name, value in paths.items():
        if not isinstance(value, str):
            raise ManifestError(f"{context}: {name!r} must be a path string")
        _check_path(value, f"{context}: {name!r}")
    gt_roi = data.get("gt_roi")
    if gt_roi is not None and not isinstance(gt_roi, bool):
        raise ManifestError(f"{context}: 'gt_roi' must be a boolean")
    return FrameRecord(
        frame_index=frame_index, time_s=time_s, roi_score=roi_score, gt_roi=gt_roi, **paths
    )


def manifest_from_dict(data: dict, base_dir: Path | None = None) -> VideoManifest:
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object")
    video_id = _require(data, "video_id", "manifest")
    if not isinstance(video_id, str) or not video_id:
        raise ManifestError("manifest: 'video_id' must be a non-empty string")
    _encoded(video_id, "manifest: 'video_id'")
    context = f"manifest {video_id!r}"
    frames_raw = _require(data, "frames", context)
    if not isinstance(frames_raw, list):
        raise ManifestError(f"{context}: 'frames' must be a list")
    frames = []
    for i, frame_data in enumerate(frames_raw):
        if not isinstance(frame_data, dict):
            raise ManifestError(f"{context}: frame {i} must be an object")
        frames.append(_parse_frame(frame_data, f"{context} frame {i}"))
    for prev, cur in zip(frames, frames[1:]):
        if cur.frame_index <= prev.frame_index:
            raise ManifestError(
                f"{context}: frame_index must be strictly increasing "
                f"({prev.frame_index} then {cur.frame_index})"
            )
        if cur.time_s < prev.time_s:
            raise ManifestError(
                f"{context}: time_s must be non-decreasing "
                f"({prev.time_s} then {cur.time_s})"
            )
    ground_truth = None
    if data.get("ground_truth") is not None:
        gt_raw = data["ground_truth"]
        if not isinstance(gt_raw, dict):
            raise ManifestError(f"{context}: 'ground_truth' must be an object")
        ground_truth = _parse_ground_truth(gt_raw, f"{context} ground_truth")
    roi_segments = None
    if data.get("roi_segments") is not None:
        segments_raw = data["roi_segments"]
        if not isinstance(segments_raw, list):
            raise ManifestError(f"{context}: 'roi_segments' must be a list")
        segments = []
        for seg in segments_raw:
            if not isinstance(seg, (list, tuple)) or len(seg) != 2:
                raise ManifestError(f"{context}: each ROI segment must be [start_s, end_s]")
            start_s = _as_number(seg[0], "roi_segments", context)
            end_s = _as_number(seg[1], "roi_segments", context)
            if end_s < start_s:
                raise ManifestError(f"{context}: ROI segment ends before it starts")
            segments.append((start_s, end_s))
        roi_segments = tuple(segments)
    return VideoManifest(
        video_id=video_id,
        frames=tuple(frames),
        ground_truth=ground_truth,
        roi_segments=roi_segments,
        base_dir=base_dir,
    )


def manifest_to_dict(manifest: VideoManifest) -> dict:
    frames = [
        {k: v for k, v in vars(record).items() if v is not None} for record in manifest.frames
    ]
    data: dict = {"video_id": manifest.video_id, "frames": frames}
    if manifest.ground_truth is not None:
        gt = manifest.ground_truth
        data["ground_truth"] = {
            "stations": {slug: flag for slug, flag in zip(STATION_SLUGS, gt.stations)},
            "fs": gt.fs,
            "its": gt.its.value,
        }
    if manifest.roi_segments is not None:
        data["roi_segments"] = [[s, e] for s, e in manifest.roi_segments]
    return data


def canonical_json(data) -> str:
    """Stable, human-readable JSON: sorted keys, two-space indents, ASCII
    escapes and no NaN. Every artifact this package writes is in this
    form; all but the ``score`` record, which VideoAssessment.to_json
    writes itself, are written by this function. Byte-identical output
    for equal input is a hard requirement."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_manifest(path: str | Path) -> VideoManifest:
    path = Path(path)
    return manifest_from_dict(_read_json(path, ManifestError), base_dir=path.parent)


def save_manifest(manifest: VideoManifest, path: str | Path) -> None:
    Path(path).write_text(canonical_json(manifest_to_dict(manifest)), encoding="utf-8")


def _read_frame_raster(path: str, lent: np.ndarray | None, code: int, channels: int) -> np.ndarray:
    """The raster at path as a frame field of that dtype code and channel
    count holds it, checked for both; lent, that field of an earlier
    frame, is passed on to _read_file as into."""
    single = channels == 1
    raster = _read_file(path, lent[np.newaxis] if single and lent is not None else lent)
    if raster.dtype != _NUMPY_DTYPES[code]:
        raise CarcinoError(f"{path}: raster is {raster.dtype}, not {_NUMPY_DTYPES[code]}")
    if raster.shape[0] != channels:
        raise CarcinoError(f"{path}: {raster.shape[0]} channels, not {channels}")
    return raster[0] if single else raster


def load_frame(
    record: FrameRecord, base_dir: str | os.PathLike, into: ConfidenceFrame | None = None
) -> ConfidenceFrame:
    """Load one frame's rasters, each with its field's dtype and channel
    count, gt_pc with 0/1 values only; the frame checks their sizes.
    Paths are joined as plain strings; a base_dir of "." adds no prefix,
    so they read as pathlib would print them.

    Without into, every array of the frame is new. into, a frame that
    load_frame returned, lends its arrays: a raster whose header declares
    the shape and dtype of into's array for it is read into that array,
    so into is overwritten and no longer valid.
    """
    base = os.fspath(base_dir)
    if base == ".":
        base = ""
    fields = {}
    for name, code, channels in _FRAME_RASTERS:
        rel = getattr(record, name)
        if rel is not None:
            lent = None if into is None else getattr(into, name)
            fields[name] = _read_frame_raster(os.path.join(base, rel), lent, code, channels)
    if "gt_pc" in fields and (fields["gt_pc"] > 1).any():
        raise MaskFormatError(
            f"{os.path.join(base, record.gt_pc)}: binary ground truth must hold only 0/1"
        )
    return ConfidenceFrame(
        frame_index=record.frame_index,
        time_s=record.time_s,
        roi_score=record.roi_score,
        gt_roi=record.gt_roi,
        **fields,
    )


def frame_loader(base_dir: str | os.PathLike) -> Callable[[FrameRecord], ConfidenceFrame]:
    """load_frame over the frames of one video, read from base_dir into
    one set of arrays: each call passes the frame the previous call
    returned as into, so a frame is valid only until the next call."""
    last: ConfidenceFrame | None = None

    def load(record: FrameRecord) -> ConfidenceFrame:
        nonlocal last
        # looked up in the module at each call, so a wrapper bound there sees every load
        last = load_frame(record, base_dir, into=last)
        return last

    return load
