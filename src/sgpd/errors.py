"""Exception taxonomy shared across the package."""

from __future__ import annotations

from math import floor, log10


class SgpdError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(SgpdError, ValueError):
    """Parameters are structurally invalid (bad modulus, non-divisible shapes, ...)."""


class WrongCaseError(ConfigurationError):
    """A computation was asked for outside the partition-shape regime it is defined for."""


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


def _count(n: int) -> str:
    """n in decimal, or "about 10^k" past 30 digits: Python refuses to write
    an int of more than 4,300 digits, and C(P, P_C) can have thousands."""
    return str(n) if n < 10**30 else f"about 10^{floor(log10(n))}"


class BudgetExceeded(SgpdError):
    """A secrecy audit would check more coalitions than its cap allows."""

    def __init__(self, coalitions: int, cap: int):
        self.coalitions = coalitions
        self.cap = cap
        super().__init__(
            f"the audit checks {_count(coalitions)} coalitions, the cap is {_count(cap)}"
        )

