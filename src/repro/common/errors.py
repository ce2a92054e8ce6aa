"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library may raise with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class SimulationError(ReproError):
    """The simulation kernel was driven into an invalid state.

    Examples: scheduling an event in the past, or running a simulation
    that has already been stopped.
    """


class UnknownEntityError(ReproError, KeyError):
    """An entity id (service, provider, consumer, node) is not known.

    Inherits from :class:`KeyError` because lookups are dict-like; callers
    may catch either type.
    """


class RegistryError(ReproError):
    """A registry operation failed (duplicate publication, missing record,
    or the registry has been failed by fault injection)."""


class RoutingError(ReproError):
    """A P2P overlay could not route a message to a responsible node."""


class WorkerError(ReproError, RuntimeError):
    """A worker process raised, died or broke protocol.

    Names the worker's role and index and the message the coordinator
    was waiting for.  Inherits from :class:`RuntimeError`, which
    sharded runs raised for worker failures before this type existed.
    """

    def __init__(self, role: str, worker: int, expected: str, cause: str) -> None:
        super().__init__(
            f"{role} {worker} worker failed while the coordinator awaited "
            f"{expected!r}: {cause}"
        )
        self.worker = worker
        self.expected = expected
