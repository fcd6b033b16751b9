"""Exception taxonomy mirrored by the CLI exit codes."""

# default of the orbit_cap config key, which the CapExceeded of an orbit
# enumeration names; kept out of orbits so the CLI reads it without numpy
ORBIT_CAP_DEFAULT = 10**6


class InputError(ValueError):
    """Bad user input: unknown preset, malformed JSON, violated precondition.  Exit 2."""


class CapExceeded(InputError):
    """An enumeration would exceed its cap.

    unit names the capped quantity ("rank" reads "needs rank 9"); setting
    names the config key that raises the cap, and only such caps say so.
    """

    def __init__(self, what: str, needed, cap, unit="elements", setting=None):
        self.what, self.needed, self.cap = what, needed, cap
        amount = f"rank {needed}" if unit == "rank" else f"{needed} {unit}"
        fix = f"raise the config key {setting} to proceed" if setting else "this cap is fixed"
        super().__init__(f"{what} needs {amount}, above the cap {cap}; {fix}")


class ModelInvariantError(ValueError):
    """A growth model violates a structural invariant.  Exit 3."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("model invariants violated: " + "; ".join(self.violations))


class CheckFailure(AssertionError):
    """A verified identity failed (consistency mode or a genuine defect).  Exit 1."""


class InternalError(RuntimeError):
    """An internal invariant failed: a defect in this package, not bad input.  Exit 4."""
