"""Exception types raised by validation and geometry layers."""


class DisconnectedGraphError(ValueError):
    """The edge set does not connect every node."""


class DuplicateEdgeError(ValueError):
    """An undirected edge (or a self-loop) appears more than once."""


class NonPositiveLengthError(ValueError):
    """An edge length is zero or negative."""


class EmptyGeneratorSetError(ValueError):
    """A Voronoi partition was requested with no generators."""


class EmptyCellError(ValueError):
    """A centroid was requested for a cell with no member nodes."""


class NonPositiveDefiniteCovarianceError(ValueError):
    """A mixture component covariance is not positive definite."""


class EmptyGridError(ValueError):
    """The raster has no pixels, or the rasterized density is identically zero."""


class NodeOutsideBoxError(ValueError):
    """A node coordinate falls outside the raster bounding box."""


class AllZeroCountsError(ValueError):
    """Request counts sum to zero and cannot be normalized."""


class UniformInputError(ValueError):
    """A uniform mass has no complement (max(p) - p is identically zero)."""


class GammaOutOfRangeError(ValueError):
    """The imbalance parameter must lie in [0, 1]."""


class LengthMismatchError(ValueError):
    """Two node-mass vectors have different lengths."""


class UnknownParameterError(ValueError):
    """A sweep parameter name is not addressable in the scenario schema."""


class ConfigValidationError(ValueError):
    """A scenario document failed schema validation.

    ``field`` holds a dotted path to the offending entry.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message
