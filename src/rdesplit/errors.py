"""Exception types shared across the package."""


class NumericFailure(RuntimeError):
    """A state left the finite floating-point range during a solve.

    Carries the index of the first offending step, and for a solve of
    several members the index of the member that left first, so blow-ups
    are diagnosable (sup-norm assumptions on the coefficient are declared
    by the user, not enforced).
    """

    def __init__(self, message, step=None, member=None):
        super().__init__(message)
        self.step = step
        self.member = member
