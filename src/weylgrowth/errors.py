"""Exception taxonomy mirrored by the CLI exit codes."""


class InputError(ValueError):
    """Bad user input: unknown preset, malformed JSON, violated precondition.  Exit 2."""


class CapExceeded(InputError):
    """An enumeration would exceed its configured cap."""

    def __init__(self, what: str, needed, cap):
        self.what, self.needed, self.cap = what, needed, cap
        super().__init__(f"{what} needs {needed} elements, above the cap {cap}; "
                         f"raise the cap explicitly to proceed")


class ModelInvariantError(ValueError):
    """A growth model violates a structural invariant.  Exit 3."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("model invariants violated: " + "; ".join(self.violations))


class CheckFailure(AssertionError):
    """A verified identity failed (consistency mode or a genuine defect).  Exit 1."""


class InternalError(RuntimeError):
    """An internal invariant failed: a defect in this package, not bad input.  Exit 4."""
