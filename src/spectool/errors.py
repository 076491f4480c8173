"""Exception types shared across the package.

The type of an error decides the command line's exit code: an
``InputError`` (unreadable or unparsable input) exits 2, any other
``SpectoolError`` exits 3 with its message, and any other exception is a
defect that exits 3 with its traceback. None exits 1, which means
"violations found".
"""


class SpectoolError(Exception):
    """Base class for all spectool errors."""


class InputError(SpectoolError):
    """Input that cannot be read or parsed as a graph."""


class ConfigurationError(SpectoolError, ValueError):
    """A parameter, option or environment value outside its domain."""


class Graph6Error(InputError, ValueError):
    """Base class for graph6 codec failures."""


class MalformedHeaderError(Graph6Error):
    """First byte missing, out of range, or trailing bytes present."""


class BadPaddingError(Graph6Error):
    """Nonzero bits in the zero-padding of the final 6-bit group."""


class TruncatedBodyError(Graph6Error):
    """Body shorter than the order requires."""


class UnsupportedOrderError(Graph6Error):
    """Order outside the short-form range (n > 62)."""


class EdgeListFormatError(InputError, ValueError):
    """Malformed plain edge-list text."""


class InvalidOrderError(SpectoolError, ValueError):
    """Generator called with an order outside its domain."""


class EmptyGraphError(SpectoolError, ValueError):
    """Operation requires at least one vertex."""


class OutOfRangeVertexError(SpectoolError, ValueError):
    """Vertex index outside 0..n-1."""


class NonConvergenceError(SpectoolError):
    """Eigensolver failed to meet its residual contract."""


class NonIntegralError(SpectoolError):
    """Spectral quantity expected to be an integer is not."""


class DisconnectedInputError(SpectoolError, ValueError):
    """Operation requires a connected graph."""


class PreconditionViolatedError(SpectoolError, ValueError):
    """A bound's precondition does not hold for the input graph."""


class NotTightError(SpectoolError, ValueError):
    """Tightness check requested for a bound that is not tight."""


class ExpansionMismatchError(SpectoolError):
    """Spectral walk expansion fails to reproduce the exact walk counts."""


class HypothesisNotMetError(SpectoolError):
    """Pipeline hypothesis fails; nothing to certify."""


class OrderTooLargeError(SpectoolError, ValueError):
    """Exhaustive enumeration requested beyond the supported order."""


class SearchBudgetExceededError(SpectoolError):
    """Cycle search hit its node-expansion budget before completing."""


class InvalidWalkTableError(SpectoolError, ValueError):
    """Walk table breaks an identity every exact walk count satisfies."""


class RedrawLimitError(SpectoolError):
    """Rejection sampler found no valid draw within its redraw bound."""


class WorkerExitError(SpectoolError, RuntimeError):
    """A forked shard worker exited without sending its results."""
