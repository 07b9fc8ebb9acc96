"""Exception hierarchy shared by all carcino modules.

The CLI maps these onto stable exit codes: raster/file problems are I/O
errors (exit 4), an empty frame set after ROI filtering is its own
condition (exit 3), and everything else is input validation (exit 2).
"""


class CarcinoError(Exception):
    """Base class for all errors raised by this package."""


# --- raster container / mask files -------------------------------------

class MaskFormatError(CarcinoError):
    """A raster file violates the MSK1 container format."""


class BadMagicError(MaskFormatError):
    pass


class UnknownDtypeError(MaskFormatError):
    pass


class TruncatedPayloadError(MaskFormatError):
    pass


class ConfidenceOutOfRangeError(MaskFormatError):
    """A confidence payload value lies outside [0, 1] or is not finite."""


class LabelOutOfRangeError(MaskFormatError):
    """A label payload value lies outside the allowed code range."""


class RasterInvariantError(CarcinoError):
    """An in-memory raster cannot be written because it violates the
    container invariants (dtype, shape, or value range). Nothing is
    written when this is raised."""


# --- manifests ----------------------------------------------------------

class ManifestError(CarcinoError):
    """A video manifest is structurally or semantically invalid."""


class ManifestSyntaxError(ManifestError):
    pass


class MissingFieldError(ManifestError):
    pass


class GroundTruthInconsistentError(ManifestError):
    """Stored score, station flags and surgery indication disagree."""


# --- pipeline -----------------------------------------------------------

class ChannelCountMismatchError(CarcinoError):
    pass


class DimensionMismatchError(CarcinoError):
    pass


class NoAssessableFramesError(CarcinoError):
    """No frame survived the ROI filter; the video cannot be scored.

    Deliberately distinct from a score of 0, which is a clinical claim."""


# --- metrics ------------------------------------------------------------

class LengthMismatchError(CarcinoError):
    pass


class EmptyCohortError(CarcinoError):
    pass


class MissingGroundTruthError(CarcinoError):
    pass


# --- cohorts ------------------------------------------------------------

class TooFewVideosError(CarcinoError):
    pass


# --- synthetic cohorts --------------------------------------------------

class InvalidSpecError(CarcinoError):
    pass
