import io
import itertools
import json
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carcino import maskio
from carcino.core import STATION_SLUGS, Indication, ScoringConstants, compute_fs, compute_its
from carcino.errors import CarcinoError, MaskFormatError

from conftest import write_video
from oracles import bytes_decode_raster, bytes_read_raster, float_check_confidences


def _encode(arr: np.ndarray) -> bytes:
    """The MSK1 bytes write_raster writes for arr."""
    buf = io.BytesIO()
    maskio.write_raster(arr, buf)
    return buf.getvalue()


# --- raster container ----------------------------------------------------


def test_header_is_14_bytes_and_payload_exact(tmp_path):
    arr = np.array([[[0, 1], [1, 0]]], dtype=np.uint8)  # 2x2, 1 channel
    path = tmp_path / "a.msk"
    written = maskio.write_raster(arr, path)
    assert maskio.HEADER_SIZE == 14
    assert written == 14 + 4
    assert path.stat().st_size == 18


def test_roundtrip_label_and_confidence(tmp_path):
    label = np.arange(9, dtype=np.uint8).reshape(1, 3, 3) % 9
    conf = np.linspace(0, 1, 2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
    for arr, name in ((label, "l.msk"), (conf, "c.msk")):
        path = tmp_path / name
        maskio.write_raster(arr, path)
        back = maskio.read_raster(path)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


@settings(max_examples=60, deadline=None)
@given(
    channels=st.integers(1, 9),
    height=st.integers(1, 12),
    width=st.integers(1, 12),
    kind=st.sampled_from(["label", "conf"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_roundtrip_is_identity_on_random_rasters(channels, height, width, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "label":
        arr = rng.integers(0, 9, size=(channels, height, width), dtype=np.uint8)
    else:
        arr = rng.random((channels, height, width), dtype=np.float32)
    blob = _encode(arr)
    back = maskio.decode_raster(blob)
    assert np.array_equal(back, arr) and back.dtype == arr.dtype
    # a second encode is bitwise identical
    assert _encode(back) == blob


def test_read_from_stream_and_bytes(tmp_path):
    arr = np.zeros((1, 2, 2), dtype=np.uint8)
    blob = _encode(arr)
    assert np.array_equal(maskio.read_raster(blob), arr)
    assert np.array_equal(maskio.read_raster(io.BytesIO(blob)), arr)


def test_bad_magic_rejected():
    arr = np.zeros((1, 2, 2), dtype=np.uint8)
    blob = b"MSK2" + _encode(arr)[4:]
    with pytest.raises(MaskFormatError, match="bad magic b'MSK2'"):
        maskio.read_raster(blob)


def test_unknown_dtype_rejected():
    arr = np.zeros((1, 2, 2), dtype=np.uint8)
    blob = bytearray(_encode(arr))
    blob[13] = 7
    with pytest.raises(MaskFormatError, match="unknown dtype code 7"):
        maskio.read_raster(bytes(blob))


def test_truncated_payload_rejected():
    arr = np.zeros((1, 4, 4), dtype=np.uint8)
    blob = _encode(arr)
    with pytest.raises(MaskFormatError, match="payload is 13 bytes, expected 16"):
        maskio.read_raster(blob[:-3])
    with pytest.raises(MaskFormatError, match="shorter than the 14-byte header"):
        maskio.read_raster(blob[:10])


def test_trailing_bytes_rejected():
    arr = np.zeros((1, 2, 2), dtype=np.uint8)
    with pytest.raises(MaskFormatError):
        maskio.read_raster(_encode(arr) + b"\x00")


def test_confidence_out_of_range_rejected_on_read():
    arr = np.full((1, 2, 2), 0.5, dtype=np.float32)
    blob = bytearray(_encode(arr))
    bad = np.array([1.5], dtype="<f4").tobytes()
    blob[maskio.HEADER_SIZE : maskio.HEADER_SIZE + 4] = bad
    with pytest.raises(MaskFormatError, match=r"confidence value outside \[0, 1\]"):
        maskio.read_raster(bytes(blob))
    blob[maskio.HEADER_SIZE : maskio.HEADER_SIZE + 4] = np.array(
        [np.nan], dtype="<f4"
    ).tobytes()
    with pytest.raises(MaskFormatError, match="non-finite confidence value"):
        maskio.read_raster(bytes(blob))


def test_label_out_of_range_rejected_both_ways(tmp_path):
    arr = np.full((1, 2, 2), 9, dtype=np.uint8)
    path = tmp_path / "bad.msk"
    with pytest.raises(MaskFormatError, match="label value above 8"):
        maskio.write_raster(arr, path)
    assert not path.exists()  # rejected before writing
    good = np.zeros((1, 2, 2), dtype=np.uint8)
    blob = bytearray(_encode(good))
    blob[maskio.HEADER_SIZE] = 9
    with pytest.raises(MaskFormatError, match="label value above 8"):
        maskio.read_raster(bytes(blob))


def test_invalid_rasters_rejected_nothing_written(tmp_path):
    path = tmp_path / "never.msk"
    with pytest.raises(CarcinoError, match=r"must be a \(channels, height, width\) array"):
        maskio.write_raster(np.zeros((2, 2), dtype=np.uint8), path)
    with pytest.raises(CarcinoError, match="dtype must be uint8 .* got float64"):
        maskio.write_raster(np.zeros((1, 2, 2), dtype=np.float64), path)
    with pytest.raises(MaskFormatError, match=r"confidence value outside \[0, 1\]"):
        maskio.write_raster(np.full((1, 2, 2), 1.5, dtype=np.float32), path)
    with pytest.raises(CarcinoError, match="dimensions must all be >= 1"):
        maskio.write_raster(np.zeros((1, 0, 2), dtype=np.uint8), path)
    with pytest.raises(CarcinoError, match="channel count must fit in uint8"):
        maskio.write_raster(np.zeros((256, 1, 1), dtype=np.uint8), path)
    assert not path.exists()


def test_raster_path_appears_in_error_message(tmp_path):
    path = tmp_path / "corrupt.msk"
    path.write_bytes(b"MSK2" + b"\x00" * 20)
    with pytest.raises(MaskFormatError, match="bad magic") as excinfo:
        maskio.read_raster(path)
    assert str(path) in str(excinfo.value)


@st.composite
def _msk1_blobs(draw):
    """An MSK1 header with small dimensions and a known or unknown dtype
    code, over a payload of the size the header implies or any size."""
    width, height, channels = draw(st.integers(0, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    code = draw(st.integers(0, 2))
    size = width * height * channels * (4 if code == maskio.DTYPE_CONFIDENCE else 1)
    payload = draw(st.binary(min_size=size, max_size=size) | st.binary(max_size=2 * size + 2))
    return maskio._HEADER.pack(maskio.MAGIC, width, height, channels, code) + payload


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=64) | _msk1_blobs())
def test_decode_raster_raises_only_package_errors(blob):
    """Arbitrary bytes, and MSK1 headers over arbitrary payloads, either
    decode or raise a CarcinoError subclass."""
    try:
        arr = maskio.decode_raster(blob)
    except CarcinoError:
        return
    assert arr.ndim == 3


@st.composite
def _valid_msk1_blobs(draw):
    """A valid MSK1 raster of either dtype, 1-9 channels, odd sizes."""
    channels = draw(st.integers(1, 9))
    height, width = draw(st.integers(0, 12)) * 2 + 1, draw(st.integers(0, 12)) * 2 + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        arr = rng.integers(0, maskio.MAX_LABEL + 1, size=(channels, height, width), dtype=np.uint8)
    else:
        arr = rng.random((channels, height, width), dtype=np.float32)
    return _encode(arr)


def _outcome(read, source):
    try:
        return read(source)
    except CarcinoError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.writeable == want.flags.writeable
        assert np.array_equal(got, want)
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=64) | _msk1_blobs() | _valid_msk1_blobs())
def test_file_reader_matches_bytes_reference(tmp_path_factory, blob):
    """Files read with one copy, bytes-like objects and streams decode to
    the same array, or fail with the same error class and message, as the
    former read-everything-then-slice decoder. A stream, read to one byte
    past its payload, reports trailing bytes without counting them; an
    array decoded from a bytes-like object never shares its memory."""
    path = tmp_path_factory.getbasetemp() / "equivalence.msk"
    path.write_bytes(blob)
    _assert_same_outcome(_outcome(maskio.read_raster, path), _outcome(bytes_read_raster, path))
    want = _outcome(bytes_decode_raster, blob)
    for source in (blob, bytearray(blob), memoryview(blob)):
        got = _outcome(maskio.read_raster, source)
        _assert_same_outcome(got, want)
        if isinstance(got, np.ndarray):
            assert not np.shares_memory(got, np.frombuffer(source, np.uint8))
    if isinstance(want, tuple):
        want = (want[0], re.sub(r"^\d+ (?=trailing bytes after payload$)", "", want[1]))
    for stream in (
        io.BytesIO(blob),
        _EndlessStream(blob, endless=False),
        _OneByteStream(blob, endless=False),
    ):
        _assert_same_outcome(_outcome(maskio.read_raster, stream), want)


def test_decode_raster_rejects_a_strided_buffer():
    with pytest.raises(TypeError, match="C-contiguous"):
        maskio.decode_raster(memoryview(bytes(64))[::2])


_NEG_ZERO, _ONE, _AFTER_ONE = 0x80000000, 0x3F800000, 0x3F800001  # -0.0, 1.0, nextafter(1, 2)
_SUBNORMALS = (0x00000001, 0x007FFFFF, 0x80000001, 0x807FFFFF)
_INFS = (0x7F800000, 0xFF800000)
_NANS = (0x7FC00000, 0x7F800001, 0x7FFFFFFF, 0xFFC00000, 0xFF800001, 0xFFFFFFFF)
_HALF = 0x3F000000


@settings(max_examples=400, deadline=None)
@given(
    bits=st.lists(
        st.integers(0, 2**32 - 1)
        | st.integers(0, _ONE)
        | st.sampled_from((_NEG_ZERO, _ONE, _AFTER_ONE, *_SUBNORMALS, *_INFS, *_NANS)),
        min_size=1,
        max_size=12,
    )
)
@example(bits=[_NEG_ZERO])
@example(bits=[_HALF, _NEG_ZERO, _ONE])
@example(bits=[_ONE])
@example(bits=[_HALF, _AFTER_ONE])
@example(bits=list(_SUBNORMALS))
@example(bits=[_HALF, _SUBNORMALS[1]])
@example(bits=[_HALF, _SUBNORMALS[2]])
@example(bits=[_HALF, _INFS[0]])
@example(bits=[_HALF, _INFS[1]])
@example(bits=[_HALF, _NANS[0]])
@example(bits=[_HALF, _NANS[1]])
@example(bits=[_HALF, _NANS[4]])
def test_one_pass_value_check_matches_float_test(tmp_path_factory, bits):
    """Any float32 bit patterns: the one-pass check accepts and rejects
    what the former min/max float test does, with the same error class
    and message, from bytes, from a file and on write."""
    arr = np.array(bits, dtype=np.uint32).view("<f4").reshape(1, 1, len(bits))
    blob = maskio._HEADER.pack(maskio.MAGIC, len(bits), 1, 1, maskio.DTYPE_CONFIDENCE)
    blob += arr.tobytes()
    path = tmp_path_factory.getbasetemp() / "values.msk"
    path.write_bytes(blob)

    def outcome(check, *args):
        try:
            result = check(*args)
        except MaskFormatError as exc:
            return type(exc), str(exc)
        if isinstance(result, np.ndarray):
            return result.view(np.uint32).ravel().tolist()
        return None

    for got, context in (
        (outcome(maskio.decode_raster, blob, "blob"), "blob"),
        (outcome(maskio.read_raster, path), str(path)),
    ):
        want = outcome(float_check_confidences, arr, context) or bits
        assert got == want
    assert outcome(maskio.write_raster, arr, io.BytesIO()) == outcome(
        float_check_confidences, arr
    )


def test_read_raster_accepts_bytes_like():
    arr = np.linspace(0, 1, 2 * 3 * 5, dtype=np.float32).reshape(2, 3, 5)
    blob = _encode(arr)
    for source in (bytearray(blob), memoryview(blob), np.frombuffer(blob, dtype=np.uint8)):
        back = maskio.read_raster(source)
        assert back.dtype == arr.dtype and np.array_equal(back, arr)
        assert back.flags.writeable
    with pytest.raises(MaskFormatError, match="payload is 117 bytes, expected 120"):
        maskio.read_raster(bytearray(blob[:-3]))


def test_oversized_header_fails_before_allocating(tmp_path):
    """A header declaring 255 x 65535 x 65535 float32 (about 4.4 TB) over
    no payload is reported as truncated, without allocating the payload."""
    path = tmp_path / "huge.msk"
    path.write_bytes(maskio._HEADER.pack(maskio.MAGIC, 65535, 65535, 255, maskio.DTYPE_CONFIDENCE))
    expected = 255 * 65535 * 65535 * 4
    tracemalloc.start()
    try:
        with pytest.raises(MaskFormatError, match="payload is 0 bytes") as excinfo:
            maskio.read_raster(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(excinfo.value) == f"payload is 0 bytes, expected {expected} in {path}"
    assert peak < 1 << 20


def test_read_raster_from_a_pipe(tmp_path):
    """A FIFO has no size to check the header against; it is read whole."""
    arr = np.arange(12, dtype=np.uint8).reshape(1, 3, 4) % 9
    path = tmp_path / "pipe.msk"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(_encode(arr),), daemon=True)
    writer.start()
    back = maskio.read_raster(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(back, arr)


class _EndlessStream(io.RawIOBase):
    """A stream that serves blob and then zeros, and raises once it has
    served a MiB: a reader that reads to its end never returns."""

    def __init__(self, blob: bytes, endless: bool = True):
        self.data = io.BytesIO(blob)
        self.endless = endless
        self.served = 0

    def readable(self):
        return True

    def readinto(self, buf):
        if self.served >= 1 << 20:
            raise AssertionError("read past a MiB")
        n = self.data.readinto(buf)
        if not n and self.endless:
            n = len(buf)
            buf[:n] = bytes(n)
        self.served += n
        return n


class _OneByteStream(_EndlessStream):
    """An _EndlessStream that serves one byte a read."""

    def readinto(self, buf):
        return super().readinto(memoryview(buf)[:1])


def test_read_raster_reads_a_stream_no_further_than_its_header_needs():
    """A raster followed by bytes without end fails on the byte after its
    payload, without reading on; a header that claims about 4.4 TB over
    10 bytes fails as truncated and allocates little."""
    blob = _encode(np.zeros((1, 4, 4), np.float32))
    assert len(blob) == 78
    back = maskio.read_raster(_EndlessStream(blob, endless=False))
    assert np.array_equal(back, np.zeros((1, 4, 4)))
    with pytest.raises(MaskFormatError, match="^trailing bytes after payload$"):
        maskio.read_raster(_EndlessStream(blob))

    huge = maskio._HEADER.pack(maskio.MAGIC, 65535, 65535, 255, maskio.DTYPE_CONFIDENCE)
    tracemalloc.start()
    try:
        with pytest.raises(MaskFormatError, match="payload is 10 bytes") as excinfo:
            maskio.read_raster(_EndlessStream(huge + bytes(10), endless=False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(excinfo.value) == f"payload is 10 bytes, expected {255 * 65535 * 65535 * 4}"
    assert peak < 1 << 20


def test_read_raster_from_a_pipe_held_open_after_extra_bytes(tmp_path):
    """A FIFO whose writer sends a raster and more bytes, then keeps the
    pipe open, fails on the extra bytes while the writer still holds it."""
    path = tmp_path / "pipe.msk"
    os.mkfifo(path)
    release = threading.Event()

    def write():
        with open(path, "wb") as fh:
            fh.write(_encode(np.zeros((1, 4, 4), np.float32)) + bytes(100))
            fh.flush()
            release.wait(timeout=10)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        with pytest.raises(MaskFormatError, match="trailing bytes after payload in "):
            maskio.read_raster(path)
        assert not release.is_set() and writer.is_alive()
    finally:
        release.set()
        writer.join(timeout=10)
    assert not writer.is_alive()


# --- manifests -------------------------------------------------------------


def _minimal_manifest(gt=None):
    data = {
        "video_id": "v1",
        "frames": [
            {
                "frame_index": 0,
                "time_s": 0.0,
                "organ_conf": "f0.organ.msk",
                "pc_conf": "f0.pc.msk",
                "roi_score": 0.9,
            }
        ],
    }
    if gt is not None:
        data["ground_truth"] = gt
    return data


def _gt_dict(flags, fs, its):
    slugs = [
        "diaphragm",
        "liver",
        "stomach_spleen_lesser_omentum",
        "greater_omentum",
        "parietal_peritoneum",
        "bowel",
    ]
    return {"stations": dict(zip(slugs, flags)), "fs": fs, "its": its}


def test_manifest_accepts_consistent_ground_truth(tmp_path):
    gt = _gt_dict([True, False, False, False, False, False], 2, "SurgeryIndicated")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_minimal_manifest(gt)))
    manifest = maskio.load_manifest(path)
    assert manifest.ground_truth.fs == 2
    assert manifest.ground_truth.its is Indication.SURGERY_INDICATED
    assert manifest.base_dir == tmp_path


def test_manifest_rejects_fs_station_mismatch(tmp_path):
    gt = _gt_dict([True, False, False, False, False, False], 4, "SurgeryIndicated")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_minimal_manifest(gt)))
    with pytest.raises(CarcinoError, match="fs is 4 but 2 station points are flagged"):
        maskio.load_manifest(path)


def test_manifest_rejects_its_fs_mismatch(tmp_path):
    gt = _gt_dict([True, True, True, True, False, False], 8, "SurgeryIndicated")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_minimal_manifest(gt)))
    with pytest.raises(CarcinoError, match="its is SurgeryIndicated but fs 8 implies"):
        maskio.load_manifest(path)


def test_ground_truth_scores_its_flags_by_the_default_rules():
    """Ground truth stores only its station flags; fs and its follow from
    them, for each of the 64 flag vectors."""
    defaults = ScoringConstants()
    for stations in itertools.product((False, True), repeat=6):
        truth = maskio.VideoGroundTruth(stations)
        assert truth.fs == compute_fs(stations, defaults)
        assert truth.its is compute_its(truth.fs, defaults)
    with pytest.raises(CarcinoError, match="needs exactly 6 station flags"):
        maskio.VideoGroundTruth((True,) * 5)


@pytest.mark.parametrize(
    "fs, its, message",
    [
        (4, "SurgeryIndicated", "fs is 4 but 2 station points are flagged"),
        (2, "SurgeryContraindicated",
         "its is SurgeryContraindicated but fs 2 implies SurgeryIndicated"),
    ],
)
def test_manifest_ground_truth_mismatch_messages(tmp_path, fs, its, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_minimal_manifest(_gt_dict([True] + [False] * 5, fs, its))))
    with pytest.raises(CarcinoError, match=message):
        maskio.load_manifest(path)


def test_manifest_rejects_bad_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(CarcinoError, match="invalid JSON"):
        maskio.load_manifest(path)


def test_manifest_rejects_missing_fields(tmp_path):
    data = _minimal_manifest()
    del data["frames"][0]["pc_conf"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CarcinoError, match="missing field 'pc_conf'"):
        maskio.load_manifest(path)
    path.write_text(json.dumps({"frames": []}))
    with pytest.raises(CarcinoError, match="missing field 'video_id'"):
        maskio.load_manifest(path)


def test_manifest_rejects_unordered_frames(tmp_path):
    data = _minimal_manifest()
    second = dict(data["frames"][0])
    second["frame_index"] = 0  # not strictly increasing
    data["frames"].append(second)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CarcinoError, match=r"frame_index must be strictly increasing \(0 then 0\)"):
        maskio.load_manifest(path)
    data["frames"][1]["frame_index"] = 1
    data["frames"][1]["time_s"] = -1.0  # time goes backwards
    path.write_text(json.dumps(data))
    with pytest.raises(CarcinoError, match=r"time_s must be non-decreasing \(0.0 then -1.0\)"):
        maskio.load_manifest(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["ground_truth"]["stations"].update(spleen=True),
         "unknown station key(s) ['spleen']"),
        (lambda d: d["ground_truth"]["stations"].update(liver=1),
         "station 'liver' must be a boolean"),
        (lambda d: d["frames"][0].update(gt_roi="yes"), "'gt_roi' must be a boolean"),
        (lambda d: d.update(video_id=""), "'video_id' must be a non-empty string"),
        (lambda d: d.update(frames={}), "'frames' must be a list"),
        (lambda d: d.update(frames=[7]), "frame 0 must be an object"),
        (lambda d: d.update(roi_segments=[[5.0, 1.0]]), "ROI segment ends before it starts"),
    ],
    ids=["unknown-station", "int-station-flag", "string-gt-roi", "empty-video-id",
         "frames-not-a-list", "frame-not-an-object", "reversed-roi-segment"],
)
def test_manifest_rejects_malformed_field(edit, message):
    data = _minimal_manifest(_gt_dict([False] * 6, 0, "SurgeryIndicated"))
    edit(data)
    with pytest.raises(CarcinoError, match=re.escape(message)) as info:
        maskio.manifest_from_dict(data)
    assert message in str(info.value)


def test_manifest_rejects_roi_score_out_of_range(tmp_path):
    data = _minimal_manifest()
    data["frames"][0]["roi_score"] = 1.5
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CarcinoError, match=r"roi_score 1.5 outside \[0, 1\]"):
        maskio.load_manifest(path)


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="int-1e400")],
)
@pytest.mark.parametrize("field", ["time_s", "roi_score", "roi_segments"])
def test_manifest_rejects_non_finite_numbers(field, value):
    data = _minimal_manifest()
    if field == "roi_segments":
        data["roi_segments"] = [[0.0, value]]
    else:
        data["frames"][0][field] = value
    with pytest.raises(CarcinoError, match=f"field '{field}' must be a finite number"):
        maskio.manifest_from_dict(data)


def test_manifest_save_load_roundtrip(tmp_path):
    manifest = write_video(
        tmp_path,
        "vid",
        [
            {
                "organ_conf": np.full((8, 4, 4), 0.2, dtype=np.float32),
                "pc_conf": np.zeros((4, 4), dtype=np.float32),
                "gt_labels": np.zeros((4, 4), dtype=np.uint8),
                "gt_pc": np.zeros((4, 4), dtype=np.uint8),
                "gt_roi": True,
            }
        ],
        ground_truth=maskio.VideoGroundTruth((False,) * 6),
    )
    again = maskio.load_manifest(manifest.base_dir / "manifest.json")
    assert maskio.manifest_to_dict(again) == maskio.manifest_to_dict(manifest)


def _planes() -> dict:
    """The planes of a valid 4x4 frame: 8 organ planes, one
    carcinomatosis plane and both ground-truth planes."""
    return {
        "organ_conf": np.zeros((8, 4, 4), np.float32),
        "pc_conf": np.zeros((4, 4), np.float32),
        "gt_labels": np.zeros((4, 4), np.uint8),
        "gt_pc": np.zeros((4, 4), np.uint8),
    }


@pytest.mark.parametrize(
    "field, plane, defect",
    [
        ("organ_conf", np.zeros((7, 4, 4), np.float32), r"\(7, 4, 4\), not \(8, H, W\)"),
        ("organ_conf", np.zeros((4, 4), np.float32), r"\(4, 4\), not \(8, H, W\)"),
        ("pc_conf", np.zeros((5, 5), np.float32), r"\(5, 5\), the organ planes are \(4, 4\)"),
        ("pc_conf", np.zeros((4, 4), np.float64), "float64, not float32"),
        ("gt_labels", np.zeros((4, 4), np.int64), "int64, not uint8"),
        ("gt_pc", np.zeros((5, 5), np.uint8), r"\(5, 5\), the organ planes are \(4, 4\)"),
    ],
    ids=["7-organ-planes", "2d-organ-plane", "pc-5x5", "float64-pc", "int64-labels", "gt-pc-5x5"],
)
def test_confidence_frame_checks_its_planes(field, plane, defect):
    """A frame built in memory is held to the rule a frame read from disk
    is: each defect fails when the frame is built, naming its index, as
    invalid input (exit 2), not as a raster format error (exit 4)."""
    maskio.ConfidenceFrame(frame_index=3, time_s=0.0, roi_score=1.0, **_planes())
    with pytest.raises(CarcinoError, match=f"^frame 3: {field} is {defect}$") as excinfo:
        maskio.ConfidenceFrame(
            frame_index=3, time_s=0.0, roi_score=1.0, **{**_planes(), field: plane}
        )
    assert not isinstance(excinfo.value, MaskFormatError)


@pytest.mark.parametrize(
    "field, value",
    [
        ("roi_score", float("nan")),
        ("roi_score", -3.0),
        ("roi_score", 7.0),
        ("frame_index", True),
        ("time_s", float("inf")),
    ],
    ids=["nan-roi-score", "negative-roi-score", "roi-score-7", "bool-frame-index", "inf-time"],
)
def test_confidence_frame_checks_its_scalars_as_a_manifest_does(field, value):
    """A frame built in memory with a value a manifest entry may not hold
    fails as the manifest does, with the same error and message, instead
    of being scored (roi_score NaN or -3.0 read as non-ROI, 7.0 as ROI)."""
    scalars = {"frame_index": 3, "time_s": 0.0, "roi_score": 1.0, field: value}
    with pytest.raises(CarcinoError) as in_memory:
        maskio.ConfidenceFrame(**scalars, **_planes())
    data = _minimal_manifest()
    data["frames"][0][field] = value
    with pytest.raises(CarcinoError) as from_manifest:
        maskio.manifest_from_dict(data)
    context, message = str(in_memory.value).split(": ", 1)
    assert context == f"frame {scalars['frame_index']!r}"
    assert str(from_manifest.value).endswith(f": {message}")


def test_load_frame_checks_dimensions_and_channels(tmp_path):
    """One row per raster and defect: a raster of the other dtype, of one
    channel more or less than its field holds, or of another size. Each
    fails as invalid input (exit 2), not as a raster format error (exit
    4), with the message of its defect."""
    rasters = {
        name: plane if name == "organ_conf" else plane[np.newaxis]
        for name, plane in _planes().items()
    }
    for name, raster in rasters.items():
        maskio.write_raster(raster, tmp_path / f"{name}.msk")
    want = {}
    for name, raster in rasters.items():
        other = np.float32 if raster.dtype == np.uint8 else np.uint8
        channels = 7 if name == "organ_conf" else 2
        defects = {
            "dtype": (raster.astype(other), f"raster is {np.dtype(other)}, not {raster.dtype}"),
            "channels": (
                np.zeros((channels, 4, 4), raster.dtype),
                f"{channels} channels, not {raster.shape[0]}",
            ),
            "size": (np.zeros((raster.shape[0], 5, 5), raster.dtype), "the organ planes are"),
        }
        for defect, (bad, fragment) in defects.items():
            maskio.write_raster(bad, tmp_path / f"{name}-{defect}.msk")
            want[name, defect] = fragment
    paths = {name: f"{name}.msk" for name in rasters}
    frame = maskio.load_frame(maskio.FrameRecord(0, 0.0, roi_score=1.0, **paths), tmp_path)
    assert frame.organ_conf.shape == (8, 4, 4)
    assert frame.pc_conf.shape == frame.gt_labels.shape == frame.gt_pc.shape == (4, 4)
    for (name, defect), fragment in want.items():
        record = maskio.FrameRecord(
            0, 0.0, roi_score=1.0, **{**paths, name: f"{name}-{defect}.msk"}
        )
        with pytest.raises(CarcinoError) as excinfo:
            maskio.load_frame(record, tmp_path)
        assert not isinstance(excinfo.value, MaskFormatError), (name, defect)
        assert fragment in str(excinfo.value), (name, defect)


def test_load_frame_rejects_nonbinary_gt_pc(tmp_path):
    video_dir = tmp_path / "v"
    video_dir.mkdir()
    maskio.write_raster(np.zeros((8, 4, 4), dtype=np.float32), video_dir / "organ.msk")
    maskio.write_raster(np.zeros((1, 4, 4), dtype=np.float32), video_dir / "pc.msk")
    maskio.write_raster(np.full((1, 4, 4), 2, dtype=np.uint8), video_dir / "gtpc.msk")
    rec = maskio.FrameRecord(0, 0.0, "organ.msk", "pc.msk", 1.0, gt_pc="gtpc.msk")
    with pytest.raises(MaskFormatError, match="binary ground truth must hold only 0/1"):
        maskio.load_frame(rec, video_dir)


def test_frame_loader_reuses_buffers(tmp_path):
    """Consecutive frames of one size share the loader's arrays; a raster
    of another size or dtype gets a new array, and load_frame without
    into never shares."""

    def frame(shape, organ, pc, gt=True):
        arrays = {"organ_conf": np.full((8, *shape), organ), "pc_conf": np.full(shape, pc)}
        if gt:
            arrays["gt_labels"] = np.ones(shape, np.uint8)
            arrays["gt_pc"] = np.zeros(shape, np.uint8)
        return arrays

    frames = [
        frame((4, 4), 0.1, 0.2),
        frame((4, 4), 0.3, 0.4),
        frame((5, 5), 0.5, 0.6),
        frame((5, 5), 0.7, 0.8, gt=False),
    ]
    manifest = write_video(tmp_path, "v", frames)
    records, base = manifest.frames, manifest.base_dir
    maskio.write_raster(np.zeros((8, 5, 5), np.uint8), base / records[3].organ_conf)
    names = ("organ_conf", "pc_conf", "gt_labels", "gt_pc")

    load = maskio.frame_loader(base)
    first = load(records[0])
    second = load(records[1])
    for name in names:
        assert np.shares_memory(getattr(first, name), getattr(second, name))
    assert (second.organ_conf == np.float32(0.3)).all()
    assert (second.pc_conf == np.float32(0.4)).all()
    third = load(records[2])
    assert third.pc_conf.shape == (5, 5)
    for name in names:
        assert not np.shares_memory(getattr(second, name), getattr(third, name))
    with pytest.raises(CarcinoError, match="raster is uint8, not float32"):
        load(records[3])  # a uint8 organ raster of the same shape
    assert (third.organ_conf == np.float32(0.5)).all()
    again = load(records[2])  # the loader goes on from the last frame it returned
    for name in names:
        assert np.shares_memory(getattr(third, name), getattr(again, name))

    fresh = [maskio.load_frame(records[0], base) for _ in range(2)]
    for name in names:
        assert not np.shares_memory(getattr(fresh[0], name), getattr(fresh[1], name))
        assert not np.shares_memory(getattr(fresh[0], name), getattr(again, name))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
_valid_frame = _minimal_manifest()["frames"][0]
_frames = st.builds(
    lambda base, changes: {**base, **changes},
    st.sampled_from([_valid_frame, {}]),
    st.dictionaries(
        st.sampled_from([*_valid_frame, "gt_labels", "gt_pc", "gt_roi"]),
        st.floats(0, 1) | st.integers(0, 3) | st.sampled_from(["f.msk", True]) | _json_values,
        max_size=2,
    ),
)
_ground_truths = st.fixed_dictionaries(
    {
        "stations": st.dictionaries(
            st.sampled_from(list(STATION_SLUGS) + ["liver"]), st.booleans(), min_size=5
        ) | _json_values,
        "fs": st.integers(0, 12) | _json_values,
        "its": st.sampled_from([i.value for i in Indication]) | _json_values,
    },
)
_manifests = st.fixed_dictionaries(
    {"video_id": st.just("v1"), "frames": st.lists(_frames, max_size=3)},
    optional={
        "ground_truth": _ground_truths | _json_values,
        "roi_segments": st.lists(st.lists(st.floats() | _json_values, max_size=3), max_size=2)
        | _json_values,
    },
)


@settings(max_examples=300, deadline=None)
@given(data=_manifests | _json_values)
def test_manifest_from_dict_raises_only_package_errors(data):
    """Arbitrary JSON values, and manifest-shaped objects holding them,
    either parse or raise a CarcinoError subclass."""
    try:
        manifest = maskio.manifest_from_dict(data)
    except CarcinoError:
        return
    assert isinstance(manifest, maskio.VideoManifest)
