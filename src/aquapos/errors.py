"""Exception types shared across the package."""


class AquaposError(Exception):
    """Base class for package-specific errors."""


class GimbalLockNear(AquaposError):
    """Pitch too close to +/-90 degrees for a Z-Y-X Euler conversion."""


class DegenerateLine(AquaposError):
    """Line construction from (near-)coincident points."""


class ParallelToPlane(AquaposError):
    """Line direction has no component across the target plane."""


class BehindCamera(AquaposError):
    """Point at or behind the camera plane cannot be projected."""


class PnPDegenerate(AquaposError):
    """Tag corners no pose of the tag explains: too far off-axis, a quad of at
    most 1 px^2, a quad that is not strictly convex (its four corner turns
    do not share one nonzero sign, in either corner order; this covers
    darts, bow-ties and three collinear corners), no rotation at the tag
    centre, or corners too bunched to fix the translation."""


class PnPNoConvergence(AquaposError):
    """Pose refinement hit the iteration cap without converging."""


class PitchSingularity(AquaposError):
    """Tilt filter prediction undefined near +/-90 degree pitch."""


class AccelOutOfRange(AquaposError):
    """Accelerometer magnitude too far from gravity for a tilt fix."""


class StaleSensor(AquaposError):
    """Required sensor sample is missing or older than the staleness bound."""


class NonFiniteEstimate(AquaposError):
    """Estimator arithmetic, or the error arithmetic that scores an estimate,
    overflowed to a non-finite result."""


class InsufficientData(AquaposError):
    """Not enough data points for the requested fit."""


class DegenerateData(AquaposError):
    """Data has no spread along a required axis."""


class EmptySeries(AquaposError):
    """Metric requested over an empty series."""


class SingularDesign(AquaposError):
    """Regression design matrix is rank-deficient."""


class RegionTooSmall(AquaposError):
    """Trajectory pattern or depth profile does not fit the region."""


class NoOverlap(AquaposError):
    """Estimate and truth series share no common time range."""


class DatasetFormatError(AquaposError):
    """Malformed dataset record; message carries the line number."""


class ConfigError(AquaposError):
    """Invalid or unreadable configuration."""
