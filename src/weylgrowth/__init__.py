"""Toolkit for restricted root systems, Weyl-chamber cone geometry,
piecewise-linear growth-indicator models and their critical functionals."""

from .errors import (CapExceeded, CheckFailure, InputError, InternalError,
                     ModelInvariantError)

__all__ = [
    "CapExceeded",
    "CheckFailure",
    "InputError",
    "InternalError",
    "ModelInvariantError",
]

__version__ = "0.1.0"
