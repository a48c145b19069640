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
    """A valid input that no table or rule answers, refused rather than
    guessed; never a bug.

    monodromy's one-answer functions raise it: phi_family_at_2 and
    semistability_degree for v2(s) outside 0..2, the rows of the 2-adic table
    (every v3(s) is answered at 3), and phi_general_curve for that and for a
    curve outside the family with bad reduction at 2 or 3. family_report and
    curve_report carry the same text as data: an entry with group None and
    the text as provenance. cover raises it for an enumerate_cover or locate
    prime with no tables (any p other than 2 and 3), an enumerate_cover
    valuation range past the table's rows, or a locate valuation outside its
    report's range.
    """


class SizeLimitError(SemistabError):
    """Input over a fixed work limit: a cover degree or group order above the
    enumeration limits, a number whose factorization needs more than
    factorize's Pollard rho budget, a number from about 3.3e24 up that
    passes every Miller-Rabin base is_prime has, so that no proven test
    settles it, or an integer the CLI would print that is longer than
    Python's limit of integer-to-string conversion (4300 digits by default):
    a `minkowski` row, or a `curve`'s delta."""


class DisconnectedCoverError(InvalidInputError):
    """Generators do not act transitively on the fiber."""


class TheoremViolationError(SemistabError):
    """Internal consistency check failed; indicates a bug, never expected."""
