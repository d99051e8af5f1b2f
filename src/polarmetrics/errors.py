"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(PipelineError):
    """Unusable configuration: bad flags, bad option combinations, bad specs."""


class DataError(PipelineError):
    """Malformed or inconsistent input data."""


class NoJointEntitiesError(PipelineError):
    """No entity carries sentiment from both parties, so corpus polarization is undefined."""


class WorkerError(PipelineError):
    """A worker process of the tweet pass ended before returning its range."""
