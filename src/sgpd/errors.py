"""Exception taxonomy shared across the package."""

from __future__ import annotations


class SgpdError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(SgpdError, ValueError):
    """Parameters are structurally invalid (bad modulus, non-divisible shapes, ...)."""


class FieldMismatchError(SgpdError, ValueError):
    """Operands belong to prime fields with different moduli."""


class NotEnoughResults(SgpdError):
    """Decoding was attempted with fewer results than the recovery threshold."""

    def __init__(self, have: int, need: int):
        self.have = have
        self.need = need
        super().__init__(f"decoding needs {need} worker results, got {have}")


class SingularSystemError(SgpdError):
    """A linear system over GF(p) has no unique solution: its matrix is singular."""


class BudgetExceeded(SgpdError):
    """A secrecy audit's coalitions would rank more entries than its cap allows.

    The cap charges each coalition ``size``, the entries of its view matrices.
    ``coalitions`` is the exact count up to about 30 digits.  Past that it is
    None, and ``exponent``, floor(log10) of the count, names it in the
    message as "about 10^exponent"."""

    def __init__(self, coalitions: int | None, size: int, cap: int, exponent: int | None = None):
        self.coalitions = coalitions
        self.size = size
        self.cap = cap
        self.exponent = exponent
        count = f"about 10^{exponent}" if coalitions is None else coalitions
        super().__init__(
            f"the audit checks {count} coalitions of {size} rank entries each, "
            f"past the cap of {cap} in all"
        )
