"""Domain vocabulary and fixed clinical constants.

Eight segmentable anatomical structures map onto six scoring stations.
Each station involved by peritoneal carcinomatosis contributes a fixed
number of points (default 2) to the video-level Fagotti score (FS), and
the total decides the indication to surgery at a fixed cutoff (default
8: below it surgery is indicated, at or above it is contraindicated).

Integer codes for organs (0-7) and stations (0-5) are frozen so that
binary mask files and reports stay portable across implementations.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from enum import Enum, IntEnum
from pathlib import Path

import numpy as np

from .errors import CarcinoError

__all__ = [
    "OrganClass",
    "Station",
    "Indication",
    "ScoringConstants",
    "FRAME_SAMPLING_INTERVAL",
    "compute_fs",
    "compute_its",
    "ORGAN_SLUGS",
    "STATION_SLUGS",
]


class OrganClass(IntEnum):
    """Segmentable anatomical structures, in frozen channel order."""

    DIAPHRAGM = 0
    LIVER = 1
    STOMACH = 2
    SPLEEN = 3
    LESSER_OMENTUM = 4
    GREATER_OMENTUM = 5
    PARIETAL_PERITONEUM = 6
    BOWEL = 7

    @property
    def slug(self) -> str:
        return self.name.lower()


class Station(IntEnum):
    """The six scoring stations of the video-level assessment."""

    DIAPHRAGM = 0
    LIVER = 1
    STOMACH_SPLEEN_LESSER_OMENTUM = 2
    GREATER_OMENTUM = 3
    PARIETAL_PERITONEUM = 4
    BOWEL = 5

    @property
    def slug(self) -> str:
        return self.name.lower()


class Indication(Enum):
    """Binary surgery indication derived from the total score."""

    SURGERY_INDICATED = "SurgeryIndicated"
    SURGERY_CONTRAINDICATED = "SurgeryContraindicated"


_STATION_OF = (  # by organ code; _ORGANS_OF below, by station code, is its preimage
    Station.DIAPHRAGM,  # diaphragm
    Station.LIVER,  # liver
    Station.STOMACH_SPLEEN_LESSER_OMENTUM,  # stomach
    Station.STOMACH_SPLEEN_LESSER_OMENTUM,  # spleen
    Station.STOMACH_SPLEEN_LESSER_OMENTUM,  # lesser omentum
    Station.GREATER_OMENTUM,  # greater omentum
    Station.PARIETAL_PERITONEUM,  # parietal peritoneum
    Station.BOWEL,  # bowel
)
_ORGANS_OF = tuple(tuple(o for o in OrganClass if _STATION_OF[o] is s) for s in Station)

ORGAN_SLUGS = tuple(o.slug for o in OrganClass)
STATION_SLUGS = tuple(s.slug for s in Station)

FRAME_SAMPLING_INTERVAL = 5.0  # seconds between the ROI frames of a synthetic video


def _is_int(value) -> bool:
    """True for a Python int; bools are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _read_json(path: str | Path, where: str | None = None, **loads_kwargs):
    """The JSON value in the UTF-8 file at path, read with json.loads and
    loads_kwargs. Text that does not decode or parse, nests too deeply, or
    fails a loads_kwargs hook raises CarcinoError(f"{where or path}:
    invalid JSON (...)"); a file that cannot be read raises OSError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), **loads_kwargs)
    except (ValueError, RecursionError) as exc:  # also JSONDecodeError, UnicodeDecodeError
        raise CarcinoError(f"{where or path}: invalid JSON ({exc})") from exc


def _check_scalar_fields(obj) -> None:
    """CarcinoError unless every dataclass field of obj declared ``int``
    holds an int and every field declared ``float`` holds a finite int
    or float; bools are neither. Fields of other types are not checked."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("int", int) and not _is_int(value):
            raise CarcinoError(f"{f.name} must be an integer, got {value!r}")
        if f.type in ("float", float) and not (
            _is_int(value) or (isinstance(value, float) and math.isfinite(value))
        ):
            raise CarcinoError(f"{f.name} must be a finite number, got {value!r}")


def _known_fields(cls, data: dict, what: str) -> dict:
    """data, once each of its keys names a field of the dataclass cls;
    CarcinoError(f"unknown {what} field(s): [...]") if some key does not."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise CarcinoError(f"unknown {what} field(s): {sorted(unknown)}")
    return data


@dataclass(frozen=True)
class ScoringConstants:
    """Pipeline thresholds and scoring rules, threaded explicitly.

    Defaults are the clinical operating point; every field can be
    overridden (e.g. for threshold-sweep experiments) via
    ``dataclasses.replace`` or a JSON config file.

    organ_confidence_threshold / pc_confidence_threshold: minimum model
        confidence for a pixel to enter an organ / carcinomatosis mask
        (inclusive, >= semantics, at float32 precision); in (0, 1], and
        above 0 at float32, so a pixel of confidence 0 never enters.
    points_per_positive_station: score contribution of an involved
        station, and so the score step the normalized RMSE divides by;
        at most 2**53 // 6, so every score (up to six times it) is an
        exact float and no squared score error overflows.
    its_cutoff: total score at or above which surgery is contraindicated.
    roi_threshold: minimum relevance score for a frame to be assessed.
    min_nodule_pixels: speck suppression; nodules smaller than this are
        dropped (1 keeps everything).
    """

    organ_confidence_threshold: float = 0.70
    pc_confidence_threshold: float = 0.90
    points_per_positive_station: int = 2
    its_cutoff: int = 8
    roi_threshold: float = 0.5
    min_nodule_pixels: int = 1

    def __post_init__(self) -> None:
        _check_scalar_fields(self)
        for name in ("organ_confidence_threshold", "pc_confidence_threshold"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise CarcinoError(f"{name} must lie in (0, 1]")
            if np.float32(value) == 0.0:  # pixels are compared at float32: 0.0 would pass
                raise CarcinoError(f"{name} {value!r} is 0 at float32 precision")
        if not 0.0 <= self.roi_threshold <= 1.0:
            raise CarcinoError("roi_threshold must lie in [0, 1]")
        if self.points_per_positive_station <= 0:
            raise CarcinoError("points_per_positive_station must be positive")
        if 6 * self.points_per_positive_station > 2**53:
            raise CarcinoError(f"points_per_positive_station must be at most {2**53 // 6}")
        if self.its_cutoff <= 0:
            raise CarcinoError("its_cutoff must be positive")
        if self.min_nodule_pixels < 1:
            raise CarcinoError("min_nodule_pixels must be >= 1")

    def to_dict(self) -> dict:
        """The fields, plus two values report and sweep schema v1 carry:
        ``fs_step``, the score step, and the generator's
        ``frame_sampling_interval``; neither can be set."""
        return {
            **asdict(self),
            "fs_step": self.points_per_positive_station,
            "frame_sampling_interval": FRAME_SAMPLING_INTERVAL,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScoringConstants":
        return cls(**_known_fields(cls, data, "constants"))

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ScoringConstants":
        """Load overrides from a JSON object; absent fields keep defaults."""
        data = _read_json(path, f"constants file {path}")
        if not isinstance(data, dict):
            raise CarcinoError(f"constants file {path}: expected a JSON object")
        return cls.from_dict(data)


def compute_fs(station_positive: tuple[bool, ...], constants: ScoringConstants) -> int:
    """Total score: points per positive station times the positive count
    (0, 2, ..., 12 at the default 2 points per station)."""
    return constants.points_per_positive_station * sum(bool(s) for s in station_positive)


def compute_its(fs: int, constants: ScoringConstants) -> Indication:
    """Surgery contraindicated iff the score reaches the cutoff."""
    if fs >= constants.its_cutoff:
        return Indication.SURGERY_CONTRAINDICATED
    return Indication.SURGERY_INDICATED


def _mask64(seed: int) -> int:
    """A seed as the unsigned 64-bit word numpy's SeedSequence accepts."""
    return int(seed) & 0xFFFF_FFFF_FFFF_FFFF


def _rng(seed: int, *counters: int) -> np.random.Generator:
    """The Philox generator of (seed, *counters): one independent,
    reproducible stream per counter tuple."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([_mask64(seed), *counters]))
    )
