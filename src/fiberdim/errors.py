"""Exception types shared across the package."""


class FiberdimError(Exception):
    """Base class for all package-specific failures."""


class InvalidWord(FiberdimError, ValueError):
    """A symbolic word violates the alphabet contract (digits >= 1, etc.)."""


class EnumerationCapExceeded(FiberdimError):
    """A word enumeration would produce more items than the configured cap."""


class DomainEscape(FiberdimError):
    """A fiber map sent a point outside the fiber domain beyond tolerance."""


class SummabilityFailure(FiberdimError):
    """Every depth cylinder is forbidden, or the depth-1 cylinder sum is not finite."""


class NonPrimitive(FiberdimError):
    """Transition structure of a weighted chain is not primitive."""


class PerronNotConverged(FiberdimError):
    """The Perron power iteration reached its cap: the spectral gap is too small."""


class ExponentNotConverged(FiberdimError):
    """An exact marginal exponent's moment iteration reached its sweep cap."""


class BracketFailure(FiberdimError):
    """The Newton root solve hit its step cap, ``BOWEN_MAX_ITER``."""


class DegenerateExponent(FiberdimError, ValueError):
    """A contraction exponent needed as a denominator is not positive."""


class InsufficientScales(FiberdimError):
    """Too few usable scales survive the population threshold for a slope fit."""


class ConfigError(FiberdimError, ValueError):
    """Run configuration is structurally valid JSON but semantically wrong."""
