"""Exception hierarchy shared by all newcomb modules."""


class NewcombError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(NewcombError, ValueError):
    """Inputs violate a contract: bad probability, bad utility, bad argument."""


class ConfigError(ValidationError):
    """A configuration document is malformed or fails validation."""


class GraphStructureError(NewcombError):
    """A graph does not have the structure an operation requires."""


class UnsupportedGraphError(GraphStructureError):
    """The operation only supports graphs that unfold a plain chain."""


class EntanglementViolationError(NewcombError):
    """Internal invariant broke during a simulated play; indicates a bug."""
