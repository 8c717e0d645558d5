"""Walkthrough: encode two private matrices, lose some workers, decode anyway.

Multiplies a 6x4 by a 4x6 matrix over GF(257) with a 3x2 / 2x2 block split,
tolerating 2 colluding workers, on a pool of 30 simulated workers of which
only the fastest 24 (the recovery threshold) are used.
"""

import numpy as np

from sgpd import (
    LatencyModel,
    PrimeField,
    augment,
    build_plan,
    partition,
    run,
)

field = PrimeField(257)
rng = np.random.default_rng(7)

t, s, d, p_c, pool = 3, 2, 2, 2, 30
a = field.random_array((6, 4), rng)
b = field.random_array((4, 6), rng)

plan = build_plan(t, s, d, p_c, pool, field)
print(f"case={plan.case}  recovery_threshold={plan.recovery_threshold}")
print(f"normalized_load={plan.normalized_load} (evaluations per output block)")

pair = augment(partition(a, (t, s), field), partition(b, (s, d), field), p_c, rng)
print(f"A grows {a.shape} -> {pair.a_star.shape}; B grows {b.shape} -> {pair.b_star.shape}")

report = run(plan, pair, LatencyModel(shift=1.0, rate=1.0, seed=42))
print(f"success={report.success}  wall_clock={report.wall_clock:.3f}")
print(f"responders used: {report.responders}")
print(f"elements returned: {report.measured_load}")

expected = field.matmul(a, b)
assert np.array_equal(report.decoded.data, expected)
print("decoded product == A @ B mod 257: True")
