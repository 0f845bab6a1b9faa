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
    """Centralized solver diverged: coupled constraint unsatisfiable or ill-posed."""


class InvariantError(RuntimeError):
    """An internal run invariant failed (e.g. non-positive push-sum weight)."""
