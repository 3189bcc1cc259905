"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """A topology could not be built or fails a structural invariant."""


class ParameterError(ReproError):
    """An input parameter is outside its valid domain."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ConvergenceError(SimulationError):
    """The network failed to converge within the configured event budget."""


class ExperimentError(ReproError):
    """An experiment specification is invalid or produced no data."""


class SerializationError(ReproError):
    """A topology or result file could not be read or written."""


class MeasuredImportError(SerializationError):
    """A measured-topology snapshot is malformed or fails validation."""


class AnalysisError(ReproError):
    """A statistical analysis was asked of data that cannot support it."""


class CheckpointError(ReproError):
    """A simulation checkpoint could not be captured, read, or restored."""


class ProtocolError(ReproError):
    """A distributed-execution wire frame is malformed or incompatible."""


class ConnectionLostError(ProtocolError):
    """A wire connection broke off in the middle of a frame."""


class DistributedError(ReproError):
    """A distributed campaign failed at the coordinator/worker layer."""


class ApiError(ReproError):
    """A campaign-service request cannot be honoured.

    Carries the HTTP status the API layer should answer with, so the
    scheduling core can refuse work (bad spec, quota exhausted, unknown
    campaign) without knowing anything about HTTP itself.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
