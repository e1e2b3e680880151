"""Exception types shared across the package."""


class CVPrivacyError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(CVPrivacyError):
    """Matrix expected to be positive definite is not."""


class ComplexSpectrum(CVPrivacyError):
    """Matrix square root requested for a matrix with complex spectrum."""


class NotSymplectic(CVPrivacyError):
    """Matrix does not preserve the symplectic form."""


class DimensionMismatch(CVPrivacyError):
    """Operands have incompatible mode counts or shapes."""


class SingularKernel(CVPrivacyError):
    """The kernel matrix of a Gaussian map application is singular."""


class Unphysical(CVPrivacyError):
    """State violates the uncertainty bound (some symplectic eigenvalue < 1)."""


class NoAcceptedSamples(CVPrivacyError):
    """Post-selection window accepted zero sample pairs."""


class InsufficientStatistics(CVPrivacyError):
    """Not enough accepted events to report the requested estimate."""


class TailTooHeavy(CVPrivacyError):
    """Truncated Fock representation leaks too much probability mass."""


class NumericalFailure(CVPrivacyError):
    """A numerical routine produced an out-of-contract intermediate."""


class StateSchemaError(CVPrivacyError):
    """State JSON document violates the interchange schema."""
