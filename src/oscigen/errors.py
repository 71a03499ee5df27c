"""Exception types shared across the package."""


class WindowMismatchError(ValueError):
    """Binary series operation on operands with different truncation windows
    or coefficient domains."""


class SingularSeriesError(ArithmeticError):
    """Series inversion requested for a series whose constant term is not
    invertible in its coefficient domain."""


class SingularEvaluationError(ArithmeticError):
    """Closed-form evaluation hit a pole or a branch-cut ambiguity."""


class OracleFailureError(RuntimeError):
    """Contour (DFT) coefficient extraction did not converge: the imaginary
    residue of a real coefficient exceeded tolerance."""


class TableInvariantError(RuntimeError):
    """A probability table broke one of its invariants (entries in [0, 1],
    symmetry, row sums at most one), or a JSON record holds no table."""


class IntegrationError(RuntimeError):
    """Propagation of the oscillator equation failed: no step-doubling
    agreement within the step cap, or a profile that never settles to its
    asymptotic value."""
