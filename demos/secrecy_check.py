"""Exact proof that shares leak nothing, by rank over GF(p).

For each possible colluding subset of a micro instance over GF(5) the audit
checks that the coalition's view, M_d x_d + M_r x_r with uniform randomness
x_r, has the same distribution for every data value x_d: that holds exactly
when rank[M_r] = rank[M_r | M_d].  The audit takes both ranks at block
level: once per side it builds the encoder's power table over the whole
pool, random columns first, and each coalition runs one elimination on its
rows of it, whose pivots among the random columns give rank[M_r] and all of
whose pivots give rank[M_r | M_d], scaled by the entries of one block.  Each
subset line reports them as ``rank_random`` and ``rank_view``.  The verdict
covers every assignment of the data and randomness, yet costs one
elimination per side and coalition, so the audit is capped by the coalitions
times their rank entries, not by the assignments.  Zeroing the randomness
(the negative control) drops ``rank_random`` to 0 and must break this.
"""

from sgpd import AuditInstance, PrimeField, audit_all_subsets, report_lines

instance = AuditInstance(
    t=2, s=1, d=1, p_c=1, n_workers=4, field=PrimeField(5),
    big_t=2, big_s=1, big_d=1,
)
verdict = audit_all_subsets(instance)
for line in report_lines(instance, verdict):
    print(line)

print()
control = AuditInstance(
    t=2, s=1, d=1, p_c=1, n_workers=4, field=PrimeField(5),
    big_t=2, big_s=1, big_d=1, negative_control=True,
)
control_verdict = audit_all_subsets(control)
print("negative control (randomness zeroed):", "SECURE" if control_verdict.secure else "INSECURE")
assert verdict.secure and not control_verdict.secure
