"""Exception types used across the :mod:`repro` package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An invalid or inconsistent :class:`repro.sim.config.SystemConfig`."""


class TopologyError(ReproError):
    """A malformed topology query (bad node id, port, or coordinate)."""


class RoutingError(ReproError):
    """A packet could not be routed (unreachable destination or bad port)."""


class WorkloadError(ReproError):
    """An unknown benchmark name or invalid workload specification."""


class FaultConfigError(ConfigError):
    """An invalid :class:`repro.resilience.FaultConfig` (bad rate, an
    out-of-range region/bank index, or a fault model the simulated
    scheme cannot express)."""


class FaultError(ReproError):
    """The fault-injection machinery could not recover from an injected
    fault (e.g. a packet exhausted its retransmission budget)."""


class GuardError(ReproError):
    """Base class for invariant-guard failures.  Instances carry a
    ``diagnostic`` dict describing the simulator state at detection."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class GuardViolationError(GuardError):
    """A conservation invariant failed: flit/credit bookkeeping drifted
    from router contents, or in-flight packet accounting went negative."""


class DeadlockError(GuardError):
    """The watchdog saw no forward progress for a full progress window
    while the network still held packets (deadlock or livelock)."""
