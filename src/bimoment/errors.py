"""Exception hierarchy for the bimoment package.

Every failure mode that callers are expected to branch on gets its own
class; all inherit from BimomentError so `except BimomentError` catches
anything raised deliberately by this package.
"""


class BimomentError(Exception):
    pass


# --- polynomial layer ---

class ZeroPolynomial(BimomentError):
    """An operation that needs a nonzero polynomial received the zero one."""


# --- bimoment tables / biorthogonal polynomials ---

class OutOfRange(BimomentError):
    """Requested index exceeds the stored table size."""


class DegenerateMinor(BimomentError):
    """A leading principal minor vanishes: biorthogonal polynomials of this
    degree do not exist."""

    def __init__(self, n, detail=""):
        self.n = n
        super().__init__(f"leading minor {n} is numerically zero{': ' + detail if detail else ''}")


class ZeroGamma(BimomentError):
    """A recurrence coefficient gamma_n (or its tilde partner) vanishes."""

    def __init__(self, n, which="gamma"):
        self.n = n
        super().__init__(f"{which}[{n}] vanishes; reconstruction hypothesis violated")


# --- semiclassical data validation ---

class AssumptionAViolated(BimomentError):
    """deg(B_i) + 1 <= deg(A_i) fails for some side."""


class AssumptionBViolated(BimomentError):
    """A_i and B_i share more than a single-point common factor."""


class DegenerateQuadratic(BimomentError):
    """Both sides have deg(A) = deg(B) + 1 and the 2x2 leading-coefficient
    determinant vanishes."""


class NotReducible(BimomentError):
    """The second marginal is not of the linear-reduction shape A2 = a*y, B2 = 1."""


class NoCommonFactor(BimomentError):
    """Common-factor reduction requested on a coprime pair."""


class MultipleSharedRoots(BimomentError):
    """More than one distinct shared root; reduce one root at a time."""


class InconsistentSeed(BimomentError):
    """Moment propagation found the overdetermined system incompatible with
    the supplied seed block: one antidiagonal's least-squares residual, or
    the error grown across antidiagonals that each met their own bound
    (the finished table's recurrence_residual), exceeds the tolerance."""

    def __init__(self, residual, tol):
        self.residual = residual
        super().__init__(f"seed not extendable: frontier residual {residual:.3e} > {tol:.3e}")


class SingularFrontier(BimomentError):
    """A frontier linear system is rank deficient (should not happen for
    valid data; surfaced as a diagnostic)."""


# --- weights, contours, steepest descent ---

class ZeroB(BimomentError):
    """Weight construction received B identically zero."""


class NotEssential(BimomentError):
    """Sector request at an anchor with no essential behavior."""


class StokesProximity(BimomentError):
    """z is too close to a Stokes line for steepest-descent tracing."""


class SaddleCollision(BimomentError):
    """Two saddle points / critical values coincide within tolerance."""


# --- quadrature ---

class DivergentTail(BimomentError):
    """Integrand fails the decay certificate on an unbounded piece."""


class QuadratureStall(BimomentError):
    """Tolerance unreachable within the panel budget."""


class DivergentCoupling(BimomentError):
    """Coupled Gaussian regime |delta*sigma| <= 1: the product-contour double
    integral diverges and is refused."""
