"""Exception types shared across the package."""


class ConfigError(Exception):
    """Invalid experiment configuration (bad field, missing section, q too small)."""


class InvalidEdgeError(ValueError):
    """Edge references an agent outside [1, m] or is a self-loop."""


class InvalidProblemError(ValueError):
    """Problem data violates a structural requirement (e.g. unused source)."""


class InvalidInputError(ValueError):
    """Operation called with unusable input (e.g. a non-finite multiplier)."""


class InfeasibleProblemError(RuntimeError):
    """No point of the boxes satisfies the coupled constraint, as a phase-1 LP proved."""


class UncertifiedSolutionError(RuntimeError):
    """The centralized solver's answer failed its certificate on a problem not proved infeasible."""


class InvariantError(RuntimeError):
    """An internal run invariant failed (e.g. non-positive push-sum weight)."""
