"""Exception and warning types shared across the library."""


class VlocError(Exception):
    """Base class for all library errors."""


class NearSingularRotation(VlocError):
    """SE(3) log requested too close to the pi-rotation singularity."""


class NoDepth(VlocError):
    """Operation requires a depth image the observation does not carry."""


class FormatError(VlocError):
    """Malformed file; message names the file and offending line/offset."""


class VersionMismatch(VlocError):
    """Serialized map has an unknown format version."""


class EmptyMap(VlocError):
    """Retrieval against a map with no nodes."""


class DimensionMismatch(VlocError):
    """Ingested descriptor file does not match node_count x descriptor_dim."""


class NonUnitNorm(VlocError):
    """Ingested descriptors deviate from unit norm beyond tolerance."""


class OutOfBounds(VlocError):
    """Pixel coordinate outside image bounds; message names the row."""


class EmptyInput(VlocError):
    """Metric computation over an empty result list."""


class NonMonotonicTimestamp(VlocError):
    """State appended with a timestamp not after the previous one."""


class UnknownState(VlocError):
    """Factor references a state index not present in the graph."""


class NoGaugePrior(VlocError):
    """Optimization requested on a graph whose gauge is unconstrained."""


class SingularNormalEquations(VlocError):
    """LM step failed: a failed banded Cholesky or a non-finite step."""


class NotLocalized(VlocError):
    """World pose requested while the pipeline is in Lost mode."""


class PoseInCollision(VlocError):
    """Render or step requested from a pose inside an occupied cell."""


class UnreachableWaypoint(VlocError):
    """Pursuit controller stalled before reaching a waypoint."""


class NoPath(VlocError):
    """Start and goal nodes lie in different connectivity components."""


class NoMatches(VlocError):
    """Trajectory association produced no timestamp pairs."""


class DisconnectedMapWarning(UserWarning):
    """Built map is not a single connected component."""

    def __init__(self, components):
        self.components = components
        super().__init__(
            f"map has {len(components)} connectivity components: "
            + "; ".join(str(sorted(c)) for c in components)
        )


class NonUnitNormWarning(UserWarning):
    """Ingested descriptors were renormalized (deviation within tolerance)."""
