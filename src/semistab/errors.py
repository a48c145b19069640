"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: InvalidInputError,
SingularCurveError and SizeLimitError are user errors (exit 2), NotTabulatedError marks inputs
outside the tabulated valuation ranges (exit 3) and is deliberately distinct
from invalid input, and TheoremViolationError is an internal error (exit 4).
"""


class SemistabError(Exception):
    """Base class for all library errors."""


class InvalidInputError(SemistabError):
    """Precondition violation: non-prime prime, g = 0, malformed data."""


class SingularCurveError(InvalidInputError):
    """Weierstrass data with vanishing discriminant."""


class UnsupportedPrimeError(InvalidInputError):
    """Operation defined only for p >= 5 called at p = 2 or 3."""


class NotTabulatedError(SemistabError):
    """Valuation of the family parameter falls outside the tabulated ranges.

    Never a bug: the 2-adic table covers only v2(s) in 0..2, and what the
    tables at 2 and 3 do not cover is refused rather than guessed.
    """


class SizeLimitError(SemistabError):
    """Input over a fixed work limit: a cover degree or group order above the
    enumeration limits, a number whose factorization needs more than
    factorize's Pollard rho budget, or a number from about 3.3e24 up that
    passes every Miller-Rabin base is_prime has, so that no proven test
    settles it."""


class DisconnectedCoverError(InvalidInputError):
    """Generators do not act transitively on the fiber."""


class TheoremViolationError(SemistabError):
    """Internal consistency check failed; indicates a bug, never expected."""
