"""Exception types shared across the package."""


class InputError(ValueError):
    """A caller handed us something malformed (bad vertex, bad encoding, size cap)."""


class NotUnclutteredError(ValueError):
    """Raised by operations that require an uncluttered input graph.

    Carries the offending induced fork/antifork as ``witness``.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"graph is not uncluttered: induced {witness.pattern_name}"
                         f" on vertices {witness.embedding}")


class TheoremViolationError(RuntimeError):
    """An uncluttered graph matched no decomposition case.

    This should be impossible; seeing it means either a bug or a genuine
    counterexample, so the offending graph is named loudly.
    """


class DepthLimitError(RuntimeError):
    """Decomposition recursion exceeded a depth budget.

    The package no longer raises it: every tree is at most n levels deep.
    The class stays importable for code that still catches it by name.
    """
