"""Exception hierarchy shared by all carcino modules: one class per exit code.

The CLI maps these onto stable exit codes: raster/file problems are I/O
errors (exit 4), an empty frame set after ROI filtering is its own
condition (exit 3), and everything else is input validation (exit 2).
The message names the defect; the class says only which of these it is.
"""


class CarcinoError(Exception):
    """Base class for all errors raised by this package: invalid input
    (exit 2) unless a subclass below says otherwise."""


class MaskFormatError(CarcinoError):
    """A raster file violates the MSK1 container format (exit 4)."""


class NoAssessableFramesError(CarcinoError):
    """No frame survived the ROI filter; the video cannot be scored (exit 3).

    Deliberately distinct from a score of 0, which is a clinical claim."""
