"""Exception types shared across the library and mapped to CLI exit codes."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraint."""


class CertificationError(RuntimeError):
    """A synthetic task failed its margin certificate."""


class SamplerAbort(RuntimeError):
    """The rejection sampler refused up front: its acceptance rate
    1/envelope lies below the floor."""


class OutOfBoxError(ValueError):
    """A point lies outside the grid box of a count tree."""


class StreamExhausted(RuntimeError):
    """A training stream ended before supplying the promised number of examples."""
