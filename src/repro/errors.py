"""Exception hierarchy for the MTS reproduction.

All errors raised by this package derive from :class:`ReproError` so that
callers can catch everything from one root, while still being able to
discriminate configuration problems from resource exhaustion or simulation
bugs.
"""


class ReproError(Exception):
    """Root of the package exception hierarchy."""


class ConfigurationError(ReproError):
    """A spec, address, or device was configured inconsistently."""


class ValidationError(ConfigurationError):
    """A deployment spec failed validation before planning."""


class ResourceError(ReproError):
    """A physical resource (cores, memory, VFs) was exhausted."""


class VFExhaustedError(ResourceError):
    """No more SR-IOV virtual functions are available on the PF."""


class CoreExhaustedError(ResourceError):
    """No more physical CPU cores are available on the server."""


class MemoryExhaustedError(ResourceError):
    """Not enough RAM or hugepages are available on the server."""


class AddressError(ConfigurationError):
    """A MAC or IP address was malformed or duplicated."""


class FlowTableError(ReproError):
    """A flow rule is malformed or conflicts with an existing rule."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ScenarioTimeoutError(ReproError):
    """A scenario exceeded the engine's per-scenario wall-clock budget.

    Raised by the process-pool backend when a worker fails to return a
    result within its configured timeout.  Distinct from a worker
    *crash* (which the backend survives by retrying sequentially): a
    timeout is surfaced loudly because silently re-running a scenario
    that hangs would hang the parent too.

    ``pending`` names the scenarios (display labels) that never
    finished; ``completed`` counts the results that *were* collected
    before the deadline -- with out-of-order collection a single wedged
    worker no longer blocks the rest of the batch, so ``completed`` is
    usually ``len(specs) - len(pending)``.
    """

    def __init__(self, message: str, pending=(), completed: int = 0) -> None:
        super().__init__(message)
        self.pending = tuple(pending)
        self.completed = completed
