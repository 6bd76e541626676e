"""
Rate growth with frame length
=============================

The per-frame rate of the constructed set grows superlinearly at small F:
each extra packet adds more than one slot's worth of reordering freedom.
This sweep tracks the rate, its weight-class ceiling, and the product outer
bound for the erasure channel, then writes the grid as CSV.
"""

from reorderchan import sweep_point
from reorderchan.cli import format_sweep_csv

P = 0.2
A = 0.5

# %%
# The oracle column fills while the oracle's orbit partition fits in 2 GiB,
# which is F <= 8; F = 8 takes about 13 s, most of it the laws of 423,076
# orbits over 3^8 outputs. The F = 9 row keeps the constructed value and bounds.

rows = [sweep_point("erasure", P, A, F) for F in range(1, 10)]

print(f"erasure, p = {P}, a = {A}")
print(f"{'F':>2} {'constructed':>12} {'oracle':>12} {'c_xy':>8} {'outer':>8} {'per packet':>11}")
for row in rows:
    oracle = f"{row.c_oracle:.6f}" if row.c_oracle is not None else "-"
    print(
        f"{row.F:>2} {row.c_constructed:>12.6f} {oracle:>12} "
        f"{row.c_xy:>8.4f} {row.outer_bound:>8.4f} {row.c_constructed / row.F:>11.6f}"
    )

# %%
# The per-packet column climbs toward the erasure ceiling 1 - p = 0.8 but
# never touches it: the frame state always eats part of the budget.

print()
print("CSV, as the command line tool would emit it:")
print(format_sweep_csv(rows), end="")

# %%
# An optional picture when matplotlib is around.

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fs = [row.F for row in rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(fs, [row.c_constructed for row in rows], "o-", label="constructed")
    ax.plot(fs, [row.c_xy for row in rows], "s--", label="weight-class ceiling")
    ax.plot(fs, [row.outer_bound for row in rows], ":", label="independent slots")
    ax.set_xlabel("frame length F")
    ax.set_ylabel("bits per frame")
    ax.legend()
    fig.tight_layout()
    fig.savefig("capacity_sweep.png", dpi=120)
    print("wrote capacity_sweep.png")
