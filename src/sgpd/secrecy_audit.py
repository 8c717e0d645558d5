"""Exhaustive secrecy verification on micro instances.

Privacy here is exact, not statistical: the shares seen by any P_C colluding
workers must have the same distribution no matter what (A, B) is.  On a micro
instance that is decidable by brute force.  For every assignment of the data
entries and of the live random entries over GF(p), the auditor computes the
colluders' observation tuple and tabulates exact counts per (A, B); the
verdict is SECURE iff every (A, B) produces the identical count table.

Structurally zero random blocks carry no entropy and are excluded from the
enumeration, so the audit directly tests whether the masking pattern leaves
enough live randomness.  The negative control drops the live random blocks
too, which turns the shares into deterministic functions of the data and
must be flagged INSECURE.

The observation is linear over GF(p): every share entry is a fixed
power-of-the-evaluation-point combination of data and random entries at the
same within-block position.  The enumeration walks all p**n_variables
assignments in slabs, with the data entries in the low mixed-radix digits so
that the (A, B) index of an assignment is just its residue.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .codec import CodeGeometry, code_geometry
from .errors import BudgetExceeded, ConfigurationError
from .field import PrimeField

DEFAULT_BUDGET = 10**7
_SLAB = 1 << 17


@dataclass(frozen=True)
class AuditInstance:
    """A deliberately tiny configuration whose secrecy is checked by brute force.

    The worker pool may be smaller than the recovery threshold: secrecy is a
    property of the shares alone, so the auditor never builds a full plan and
    can characterize codes that no feasible pool could decode.
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
        if self.n_workers < 1:
            raise ConfigurationError(f"need at least one worker, got {self.n_workers}")
        if self.field.p <= self.n_workers:
            raise ConfigurationError(
                f"modulus {self.field.p} cannot supply {self.n_workers} distinct nonzero points"
            )
        if self.p_c > self.n_workers:
            raise ConfigurationError(
                f"collusion level {self.p_c} exceeds the pool size {self.n_workers}"
            )
        if self.big_t % self.t or self.big_s % self.s or self.big_d % self.d:
            raise ConfigurationError(
                f"element dimensions ({self.big_t},{self.big_s},{self.big_d}) are not "
                f"divisible by the grid ({self.t},{self.s},{self.d})"
            )

    @property
    def geometry(self) -> CodeGeometry:
        return code_geometry(self.t, self.s, self.d, self.p_c)

    @property
    def evaluation_points(self) -> np.ndarray:
        return np.arange(1, self.n_workers + 1, dtype=np.int64)

    def _entry_sizes(self) -> tuple[int, int, int]:
        """(entries per A block, entries per B block, data entries of A and B)."""
        ea = (self.big_t // self.t) * (self.big_s // self.s)
        eb = (self.big_s // self.s) * (self.big_d // self.d)
        return ea, eb, self.big_t * self.big_s + self.big_s * self.big_d

    def entry_counts(self):
        """(data entries, random entries actually enumerated)."""
        ea, eb, n_data = self._entry_sizes()
        return n_data, 0 if self.negative_control else self.p_c * (ea + eb)

    def cases_per_subset(self) -> int:
        n_data, n_random = self.entry_counts()
        return self.field.p ** (n_data + n_random)

    def budget_cases(self) -> int:
        """Budget estimate: always counts the claimed randomness dimension, so
        a negative control is charged the same as the instance it mimics (the
        count table it builds is that large either way)."""
        ea, eb, n_data = self._entry_sizes()
        return self.field.p ** (n_data + self.p_c * (ea + eb))


@dataclass(frozen=True)
class SubsetVerdict:
    subset: tuple
    secure: bool
    cases: int
    support: int  # distinct observation tuples under one (A, B)
    uniform: bool  # counts equal across that support
    fingerprint: str


@dataclass(frozen=True)
class AuditVerdict:
    secure: bool
    subsets: tuple
    cases_per_subset: int


def _random_blocks(live: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Live blocks outside the top-left data corner, in row-major order."""
    data_corner = np.zeros(live.shape, bool)
    data_corner[:rows, :cols] = True
    return np.argwhere(live & ~data_corner)


def _observation_matrix(instance: AuditInstance, subset) -> np.ndarray:
    """Rows: one per observed share entry; columns: one per enumerated variable.

    Variable order: A data entries, B data entries, then live random entries
    (A side, B side).  Data first, so an assignment's (A, B) part is its low
    mixed-radix digits."""
    geo = instance.geometry
    emap = geo.exponent_map
    field = instance.field
    t, s, d = geo.t, geo.s, geo.d
    ea, eb, _ = instance._entry_sizes()
    n_a = t * s * ea
    n_b = s * d * eb
    a_rand = _random_blocks(geo.layout.a_live, t, s)
    b_rand = _random_blocks(geo.layout.b_live, s, d)
    if instance.negative_control:
        a_rand, b_rand = a_rand[:0], b_rand[:0]
    n_vars = n_a + n_b + len(a_rand) * ea + len(b_rand) * eb

    a_data_pos = [(i, j) for i in range(t) for j in range(s)]
    b_data_pos = [(k, l) for k in range(s) for l in range(d)]
    top = int(max(emap.a_exponents.max(), emap.b_exponents.max()))

    rows = []
    points = instance.evaluation_points
    for w in sorted(subset):
        pows = field.powers(int(points[w - 1]), top + 1)
        for e in range(ea):  # a-share entry positions
            row = np.zeros(n_vars, dtype=np.int64)
            for blk, (i, j) in enumerate(a_data_pos):
                row[blk * ea + e] = pows[emap.a_exponents[i, j]]
            for r, (i, j) in enumerate(a_rand):
                row[n_a + n_b + r * ea + e] = pows[emap.a_exponents[i, j]]
            rows.append(row)
        for e in range(eb):  # b-share entry positions
            row = np.zeros(n_vars, dtype=np.int64)
            for blk, (k, l) in enumerate(b_data_pos):
                row[n_a + blk * eb + e] = pows[emap.b_exponents[k, l]]
            for r, (k, l) in enumerate(b_rand):
                row[n_a + n_b + len(a_rand) * ea + r * eb + e] = pows[
                    emap.b_exponents[k, l]
                ]
            rows.append(row)
    return np.stack(rows) if rows else np.zeros((0, n_vars), dtype=np.int64)


def _count_table(instance: AuditInstance, subset) -> np.ndarray:
    """counts[data_index, observation_index] over the full enumeration."""
    p = instance.field.p
    n_data, n_random = instance.entry_counts()
    n_vars = n_data + n_random
    matrix = _observation_matrix(instance, subset)
    obs_dim = matrix.shape[0]
    total = p**n_vars
    radix_vars = p ** np.arange(n_vars, dtype=np.int64)
    radix_obs = p ** np.arange(obs_dim, dtype=np.int64)
    n_obs_keys = p**obs_dim
    counts = np.zeros(p**n_data * n_obs_keys, dtype=np.int64)
    mt = matrix.T % p
    for start in range(0, total, _SLAB):
        idx = np.arange(start, min(start + _SLAB, total), dtype=np.int64)
        digits = (idx[:, None] // radix_vars[None, :]) % p
        obs = (digits @ mt) % p
        keys = (idx % p**n_data) * n_obs_keys + obs @ radix_obs
        counts += np.bincount(keys, minlength=len(counts))
    return counts.reshape(p**n_data, n_obs_keys)


def _required_budget(instance: AuditInstance, n_subsets: int) -> int:
    return n_subsets * instance.budget_cases()


def audit(instance: AuditInstance, subset, budget: int = DEFAULT_BUDGET) -> SubsetVerdict:
    """Exact verdict for one colluding subset of worker ids (1-based)."""
    subset = tuple(sorted(int(w) for w in subset))
    if len(subset) != len(set(subset)):
        raise ConfigurationError(f"subset {subset} contains duplicates")
    if any(not 1 <= w <= instance.n_workers for w in subset):
        raise ConfigurationError(f"subset {subset} outside pool 1..{instance.n_workers}")
    if len(subset) > instance.p_c:
        raise ConfigurationError(
            f"subset size {len(subset)} exceeds the claimed collusion level {instance.p_c}"
        )
    required = _required_budget(instance, 1)
    if required > budget:
        raise BudgetExceeded(required, budget)
    table = _count_table(instance, subset)
    secure = bool((table == table[0]).all())
    reference = table[0]
    support = int((reference > 0).sum())
    positive = reference[reference > 0]
    uniform = bool(positive.size == 0 or (positive == positive[0]).all())
    digest = hashlib.sha256()
    digest.update(repr((instance.t, instance.s, instance.d, instance.p_c, subset)).encode())
    digest.update(np.sort(reference).tobytes())
    return SubsetVerdict(
        subset=subset,
        secure=secure,
        cases=instance.cases_per_subset(),
        support=support,
        uniform=uniform,
        fingerprint=digest.hexdigest()[:16],
    )


def audit_all_subsets(instance: AuditInstance, budget: int = DEFAULT_BUDGET) -> AuditVerdict:
    """SECURE iff every size-P_C subset of the pool passes."""
    n_subsets = comb(instance.n_workers, instance.p_c)
    required = _required_budget(instance, n_subsets)
    if required > budget:
        raise BudgetExceeded(required, budget)
    verdicts = [
        audit(instance, subset, budget)
        for subset in combinations(range(1, instance.n_workers + 1), instance.p_c)
    ]
    return AuditVerdict(
        secure=all(v.secure for v in verdicts),
        subsets=tuple(verdicts),
        cases_per_subset=instance.cases_per_subset(),
    )


def report_lines(instance: AuditInstance, verdict: AuditVerdict) -> list:
    """Line-oriented summary, one key=value group per line."""
    lines = [
        "instance"
        f" t={instance.t} s={instance.s} d={instance.d} pc={instance.p_c}"
        f" workers={instance.n_workers} modulus={instance.field.p}"
        f" T={instance.big_t} S={instance.big_s} D={instance.big_d}"
        f" negative_control={instance.negative_control}",
        f"enumeration cases_per_subset={verdict.cases_per_subset}"
        f" subsets={len(verdict.subsets)}",
    ]
    for v in verdict.subsets:
        lines.append(
            f"subset={','.join(map(str, v.subset)) or '-'}"
            f" verdict={'SECURE' if v.secure else 'INSECURE'}"
            f" support={v.support} uniform={v.uniform} fingerprint={v.fingerprint}"
        )
    lines.append(f"verdict={'SECURE' if verdict.secure else 'INSECURE'}")
    return lines
