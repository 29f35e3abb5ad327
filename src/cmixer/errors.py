"""Exception types shared across the package."""


class CMixerError(Exception):
    """Base class for all package errors."""


class DimensionError(CMixerError):
    """Shapes of the operands do not agree."""


class NumericError(CMixerError):
    """A computation produced NaN or Inf."""


class ContractError(CMixerError):
    """A documented precondition was violated by the caller."""


class FormatError(CMixerError):
    """A dataset archive or checkpoint file is malformed."""


class UndefinedMetricError(CMixerError):
    """The requested metric is undefined for the given inputs."""


class ConfigError(CMixerError):
    """A configuration file or flag could not be interpreted."""
