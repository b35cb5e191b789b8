"""Exception types shared across the package.

Plain invalid arguments (wrong level, malformed wire strings, mismatched
operands) raise ValueError; everything with a more specific recovery story
gets its own class below.
"""


class ResourceLimitError(RuntimeError):
    """A configured cap was exceeded (closure size, level, an unfactored
    cofactor)."""


class ModelConstructionError(RuntimeError):
    """The recursive arithmetic model failed an internal consistency check."""


class ShapeViolationError(RuntimeError):
    """A discriminant did not factor as +/- 2^c * t^a * (2-t)^b, or a step
    of its derivation failed: a Wronskian factor whose roots f^n does not
    map to their critical value, an odd term in F(1 + y), or a failed
    modular spot check."""


class ExcludedBasePointError(ValueError):
    """The base point is postcritical (0 or 2), so the preimage tree degenerates."""


class BadPrimeError(ValueError):
    """The prime divides the leading coefficient, so reduction drops degree."""


class InsufficientDataError(RuntimeError):
    """Fewer usable primes up to the bound than the certifier requires."""


class ModelInconsistencyError(RuntimeError):
    """An observed Frobenius cycle type does not occur in the level-4 model.

    This must surface, never be discarded: it falsifies the containment of
    the sampled Galois group in the model, i.e. it means a bug or a wrong
    hypothesis, not a bad sample.
    """


class DegenerateTreeError(ValueError):
    """A numeric preimage collided with a postcritical value (0 or 2)."""
