"""Shared exception types."""


class InvalidDecomposition(ValueError):
    """A tree-decomposition failed validation where a valid one is required."""

    subject = "decomposition"


class InvalidLayering(ValueError):
    """A layering failed validation where a valid one is required."""

    subject = "layering"


class PaceParseError(ValueError):
    """Malformed PACE-style input file."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of budget before reaching a conclusion."""


class GroupBudgetError(ValueError):
    """An edge-group input violated its declared budget.

    ``budget`` names the violated field so callers can tell which
    precondition failed; ``detail`` is the message without that name.
    """

    def __init__(self, budget: str, detail: str):
        super().__init__(f"{budget}: {detail}")
        self.budget = budget
        self.detail = detail


class ClusteringBoundError(RuntimeError):
    """A coloring stage exceeded its guaranteed clustering bound.

    Raised after the fact by the verifying colorers; ``stage`` identifies
    which bound was violated and ``witness`` the vertices of the largest
    monochromatic component, ``measured`` of them. A stage's component is
    taken in the layer graph with the enlargement's added pairs, so it need
    not be connected in the caller's graph.
    """

    def __init__(self, stage: str, witness: tuple[int, ...], bound: int):
        measured = len(witness)
        super().__init__(
            f"{stage}: measured clustering {measured} exceeds bound {bound}"
        )
        self.stage = stage
        self.measured = measured
        self.bound = bound
        self.witness = witness


class InternalInvariantError(RuntimeError):
    """A condition the construction guarantees was found violated."""
