"""Exception types shared across the package."""


class GraphConstructionError(ValueError):
    """Raised when vertex ids or edges violate the dense-id graph contract."""


class PartitionError(ValueError):
    """Raised when a probe/nonprobe partition does not cover the vertex set."""


class IndependenceError(PartitionError):
    """Raised when two nonprobe vertices are joined by an edge.

    The offending edge is stored in ``edge``.
    """

    def __init__(self, edge, message=None):
        self.edge = tuple(edge)
        super().__init__(message or f"nonprobe vertices {edge[0]} and {edge[1]} are adjacent")


class CapabilityError(RuntimeError):
    """Raised when an input exceeds the documented scale of an operation."""


class ListSizeError(ValueError):
    """Raised when a vertex offered to the 2-list extension has more than two
    admissible colours."""

    def __init__(self, vertex, list_size):
        self.vertex = vertex
        self.list_size = list_size
        super().__init__(f"vertex {vertex} has {list_size} admissible colours, expected at most 2")


class InstanceParseError(ValueError):
    """Raised on malformed instance text; carries the 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class PromiseViolation(Exception):
    """A structural claim the problem promise guarantees failed on this input.

    Solvers convert this into a diagnostic verdict instead of guessing; the
    claim name says what failed and the witnesses are the offending vertices.
    """

    def __init__(self, claim, witnesses, detail):
        super().__init__(f"{claim}: {detail}")
        self.claim = claim
        self.witnesses = [int(w) for w in witnesses]
        self.detail = detail

    def diagnostic(self):
        return {
            "claim": self.claim,
            "witnesses": self.witnesses,
            "detail": self.detail,
        }

    def translated(self, mapping):
        return PromiseViolation(
            self.claim, [mapping[w] for w in self.witnesses], self.detail
        )
