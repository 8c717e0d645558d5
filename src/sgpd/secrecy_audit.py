"""Exact secrecy verification, one elimination per coalition and side.

Privacy here is exact, not statistical: the shares seen by any P_C colluding
workers must have the same distribution whatever (A, B) is.  Their view is
linear over GF(p), M_d x_d + M_r x_r, with x_d the data entries and x_r the
live random entries, uniform and independent.  Given the data it is uniform
on the coset M_d x_d + colspan(M_r), so it is independent of the data exactly
when rank[M_r] = rank[M_r | M_d], a verdict's ``rank_random`` and
``rank_view``.  It covers all p**(data + live random entries) assignments,
which the tests enumerate by brute force as an oracle, and costs one
elimination per side, of P_C rows and a column per live block, so
``MAX_AUDIT_SIZE`` caps the coalition count, C(P, P_C), times that size.

Structurally zero random blocks carry no entropy and are left out of M_r, so
the audit tests whether the masking leaves enough live randomness.  The
negative control drops the live random blocks too, which turns the shares
into deterministic functions of the data and must be flagged INSECURE.

The ranks are taken at block level.  A-share entries see only A variables
and B-share entries only B variables, and on each side the encoder's map is
kron(V, I_e): V is ``PrimeField.power_table`` over the colluders' points and
the block exponents, e the entries of one block.  So rank[M_r] is
e_a rank[V_r^A] + e_b rank[V_r^B], rank[M_r | M_d] likewise with
[V_r | V_d] on each side, and no matrix with a column per entry is built.
Each side's V is built once per audit for the whole pool, random columns
first, and a coalition eliminates its rows once: the pivots among the random
columns count rank[V_r], all of them rank[V_r | V_d].  The tests keep the
entry-level map as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, floor, lgamma, log

import numpy as np

from . import codec
from .errors import BudgetExceeded, ConfigurationError
from .field import PrimeField

MAX_AUDIT_SIZE = 4 * 10**5  # rank entries in all: 10**5 coalitions of the smallest, 4 each


@dataclass(frozen=True)
class AuditInstance:
    """A configuration whose secrecy is checked exactly, coalition by coalition.

    The worker pool may be smaller than the recovery threshold: secrecy is a
    property of the shares alone, so the auditor never builds a full plan and
    can characterize codes that no feasible pool could decode.  Its points
    are a plan's, by ``codec.pool_points``.
    """

    t: int
    s: int
    d: int
    p_c: int
    n_workers: int
    field: PrimeField
    big_t: int
    big_s: int
    big_d: int
    negative_control: bool = False

    def __post_init__(self):
        if self.p_c < 1:
            raise ConfigurationError(
                "secrecy audits need a collusion level of at least 1; "
                "a plan without randomness has nothing to keep secret"
            )
        if self.p_c > self.n_workers:  # also rejects an empty pool, since p_c >= 1
            raise ConfigurationError(
                f"collusion level {self.p_c} exceeds the pool size {self.n_workers}"
            )
        codec.pool_points(self.n_workers, self.field)  # refuses a pool the field cannot serve
        bigs, parts = (self.big_t, self.big_s, self.big_d), (self.t, self.s, self.d)
        for name, big, part in zip("TSD", bigs, parts):
            if part < 1:
                raise ConfigurationError(f"{name.lower()} must be >= 1, got {part}")
            if big < 1 or big % part:
                raise ConfigurationError(
                    f"{name}={big} is not a positive multiple of {name.lower()}={part}"
                )

    @property
    def rank_size(self) -> int:
        """Entries of one coalition's view matrices, [V_r | V_d] per side: P_C
        rows by the live blocks, t*s + P_C of A* and s*d + P_C of B*."""
        return self.p_c * (self.t * self.s + self.s * self.d + 2 * self.p_c)

    @cached_property
    def geometry(self) -> codec.CodeGeometry:
        """Grows with P_C, so ``audit_all_subsets`` builds it after the cap."""
        return codec.code_geometry(self.t, self.s, self.d, self.p_c)

    def entry_sizes(self) -> tuple[int, int, int]:
        """(entries per A block, entries per B block, data entries of A and B)."""
        bs = self.big_s // self.s
        n_data = self.big_t * self.big_s + self.big_s * self.big_d
        return (self.big_t // self.t) * bs, bs * (self.big_d // self.d), n_data


@dataclass(frozen=True)
class SubsetVerdict:
    subset: tuple
    rank_random: int  # rank[M_r]: the coalition's view under the zero data
    rank_view: int  # rank[M_r | M_d]: its view over every (A, B)

    @property
    def secure(self) -> bool:
        return self.rank_random == self.rank_view


@dataclass(frozen=True)
class AuditVerdict:
    instance: AuditInstance
    subsets: tuple

    @property
    def secure(self) -> bool:
        return all(v.secure for v in self.subsets)

    @property
    def cases_per_subset(self) -> int:
        """p ** (data entries + live random entries): the assignments one
        coalition's verdict covers.  Only the benchmark's counter of audited
        cases reads it; the audit itself never computes it."""
        instance = self.instance
        ea, eb, n_data = instance.entry_sizes()
        n_random = 0 if instance.negative_control else instance.p_c * (ea + eb)
        return instance.field.p ** (n_data + n_random)


def _rank_tables(instance: AuditInstance) -> list:
    """What each coalition's ranks read, once per audit, per side: the power
    table of the whole pool over the live exponents, random first (the
    layout's random masks), how many of its columns are random and one
    block's entries.  Under the negative control no column is random."""
    geo, (ea, eb, _) = instance.geometry, instance.entry_sizes()
    pool = codec.pool_points(instance.n_workers, instance.field)
    sides = []
    for exps, live, random, entries in (
        (geo.exponent_map.a_exponents, geo.layout.a_live, geo.layout.a_random, ea),
        (geo.exponent_map.b_exponents, geo.layout.b_live, geo.layout.b_random, eb),
    ):
        kept = random & (not instance.negative_control)
        table = instance.field.power_table(pool, np.concatenate([exps[kept], exps[live & ~random]]))
        sides.append((table, int(kept.sum()), entries))
    return sides


def _ranks(instance: AuditInstance, subset, sides) -> tuple[int, int]:
    """(rank[M_r], rank[M_r | M_d]) of the coalition's view at block level,
    from one elimination of its rows of each table of ``_rank_tables``."""
    rows = codec.worker_points(range(instance.n_workers), subset)
    rank_r = rank = 0
    for table, n_random, entries in sides:
        pivots = instance.field.pivot_columns(table[rows])
        rank_r += entries * sum(c < n_random for c in pivots)
        rank += entries * len(pivots)
    return rank_r, rank


def _check_audit_size(n: int, k: int, size: int) -> None:
    """Raise ``BudgetExceeded`` when C(n, k) coalitions of rank size ``size``
    pass ``MAX_AUDIT_SIZE`` in all.

    C(n, i + 1) = C(n, i)(n - i)/(i + 1) grows with i up to k <= n/2, so the
    product stops as soon as it passes the cap, and a huge pool costs a few
    multiplications, not its full count.  The refusal names the count: exact
    up to 30 digits, past that its power of ten from ``lgamma``."""
    count = 1
    for i in range(min(k, n - k) + 1):
        if count * size > MAX_AUDIT_SIZE:
            digits = (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)) / log(10)
            if digits < 30:
                raise BudgetExceeded(comb(n, k), size, MAX_AUDIT_SIZE)
            raise BudgetExceeded(None, size, MAX_AUDIT_SIZE, floor(digits))
        count = count * (n - i) // (i + 1)


def audit_all_subsets(instance: AuditInstance) -> AuditVerdict:
    """SECURE iff every size-P_C subset of the pool passes.  An audit past
    ``MAX_AUDIT_SIZE`` is refused before any rank is taken; a negative control
    is charged as its instance, so it is refused alike."""
    _check_audit_size(instance.n_workers, instance.p_c, instance.rank_size)
    sides = _rank_tables(instance)
    return AuditVerdict(
        instance,
        tuple(
            SubsetVerdict(subset, *_ranks(instance, subset, sides))
            for subset in combinations(range(1, instance.n_workers + 1), instance.p_c)
        ),
    )


def report_lines(instance: AuditInstance, verdict: AuditVerdict) -> list:
    """Line-oriented summary, one key=value group per line."""
    lines = [
        "instance"
        f" t={instance.t} s={instance.s} d={instance.d} pc={instance.p_c}"
        f" workers={instance.n_workers} modulus={instance.field.p}"
        f" T={instance.big_t} S={instance.big_s} D={instance.big_d}"
        f" negative_control={instance.negative_control}",
    ]
    for v in verdict.subsets:
        lines.append(
            f"subset={','.join(map(str, v.subset)) or '-'}"
            f" verdict={'SECURE' if v.secure else 'INSECURE'}"
            f" rank_random={v.rank_random} rank_view={v.rank_view}"
        )
    lines.append(f"verdict={'SECURE' if verdict.secure else 'INSECURE'}")
    return lines
