"""Shared exception types."""


class InvalidDecomposition(ValueError):
    """A tree-decomposition failed validation where a valid one is required."""

    subject = "decomposition"


class InvalidLayering(ValueError):
    """A layering failed validation where a valid one is required."""

    subject = "layering"


class PaceParseError(ValueError):
    """Malformed PACE-style input file: ``detail`` says what is wrong at
    ``line``; the message names the file too when ``path`` is given."""

    def __init__(self, detail: str, line: int, path: str | None = None):
        where = f"line {line}" if path is None else f"{path}: line {line}"
        super().__init__(f"{where}: {detail}")
        self.detail = detail
        self.line = line


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of budget before reaching a conclusion."""


class GroupBudgetError(ValueError):
    """An edge-group input violated its declared budget.

    ``budget`` names the violated field so callers can tell which
    precondition failed; ``detail`` is the message without that name, and
    ``part`` the index of the part of the input that violated it, if any.
    """

    def __init__(self, budget: str, detail: str, part: int | None = None):
        super().__init__(f"{budget}: {detail}")
        self.budget = budget
        self.detail = detail
        self.part = part


class ClusteringBoundError(RuntimeError):
    """A coloring stage exceeded its guaranteed clustering bound.

    Raised after the fact by the verifying colorers; ``stage`` identifies
    which bound was violated and ``witness`` the vertices of the largest
    monochromatic component, ``measured`` of them, and ``part`` the index
    of the part of the input they lie in, if any. A stage's component is
    taken in the layer graph with the enlargement's added pairs, so it need
    not be connected in the caller's graph.
    """

    def __init__(
        self,
        stage: str,
        witness: tuple[int, ...],
        bound: int,
        part: int | None = None,
    ):
        measured = len(witness)
        super().__init__(
            f"{stage}: measured clustering {measured} exceeds bound {bound}"
        )
        self.stage = stage
        self.measured = measured
        self.bound = bound
        self.witness = witness
        self.part = part


class InternalInvariantError(RuntimeError):
    """A condition the construction guarantees was found violated; ``part``
    is the index of the part of the input where, if one can be named."""

    def __init__(self, message: str, part: int | None = None):
        super().__init__(message)
        self.part = part
