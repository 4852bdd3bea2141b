"""Exception types shared across the package, and per-row abort records.

Everything derives from PoseDiffError (a ValueError) so callers can catch
the whole family or individual conditions.

Checks that a batch of scenarios can fail row by row go through `fail_where`:
called without a record it raises, which is the contract of a single pose;
called with the lockstep engine's per-row `reasons` array it names the
failing rows there instead, so the other rows carry on.
"""

import numpy as np


class PoseDiffError(ValueError):
    """Base class for all posediff errors."""


class DegenerateRotation6D(PoseDiffError):
    """6D rotation input cannot be orthogonalized (near-zero or collinear columns)."""


class NonFiniteState(PoseDiffError):
    """A reverse-process pose became infinite or NaN."""


class NonPositiveDepth(PoseDiffError):
    """Pose depth (t.z) must be strictly positive for this operation."""


class EmptyPointSet(PoseDiffError):
    """An operation requiring at least one point received none."""


class InvalidScheduleParams(PoseDiffError):
    """Noise-schedule parameters violate their constraints."""


class DimensionMismatch(PoseDiffError):
    """Array size does not match the expected dimension."""


class InvalidTimestepOrder(PoseDiffError):
    """Reverse step requires t > t_prev >= 0."""


class InvalidIterationCount(PoseDiffError):
    """Iteration count must be at least 1."""


class InvalidRange(PoseDiffError):
    """Sampling range is empty or inverted."""


class InvalidConfig(PoseDiffError):
    """Configuration failed validation; message names the offending field."""


# The checks whose failure aborts one scenario of an estimate run; the CSV's
# `reason` column holds the class name of the first one a scenario fails.
ABORTS = (NonPositiveDepth, DegenerateRotation6D, NonFiniteState)


def fail_where(bad, exc_type: type[PoseDiffError], reasons, message: str, *args) -> None:
    """Report the rows flagged in `bad` as failing the check `exc_type`.

    `reasons` is None for a single pose: any flagged row raises
    `exc_type(message.format(*args))`. Otherwise it is an object array with
    one entry per row, "" while the row runs: each flagged row that has no
    reason yet gets the class name, so the first check a row fails names its
    abort.
    """
    # bool() of a single flag is far cheaper than numpy's any().
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return
    if reasons is None:
        raise exc_type(message.format(*args))
    reasons[bad & (reasons == "")] = exc_type.__name__
