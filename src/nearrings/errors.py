"""Exception types shared across the package."""

from __future__ import annotations


class NearringError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(NearringError):
    """Malformed or unsupported input: bad spec string, bad file, unknown name."""


class PreconditionError(NearringError):
    """An operation was called on a value outside its stated domain."""


class AxiomViolation(NearringError):
    """A table failed an algebraic axiom.

    Carries the axiom name and the first witness triple (row-major scan
    order), so callers and error messages can point at a concrete failure.
    """

    def __init__(self, axiom: str, witness: tuple[int, ...], detail: str = ""):
        self.axiom = axiom
        self.witness = witness
        self.detail = detail
        msg = f"axiom {axiom!r} fails at {witness}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
