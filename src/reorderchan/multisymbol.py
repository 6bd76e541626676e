"""Multisymbols: one representative symbol per frame state.

A multisymbol fixes, for every state s, which weight-s symbol the reordering
encoder sends when the frame happens to contain s packets addressed 1.
`StrategySet` holds strategies as rows of one table and builds these records
only when `.multisymbols` is read.
"""

from dataclasses import dataclass

from .frame_space import weight


@dataclass(frozen=True)
class Multisymbol:
    """Representatives reps[s] for s = 0..F, where reps[s] has weight s."""

    F: int
    reps: tuple

    def __post_init__(self):
        reps = tuple(int(x) for x in self.reps)
        object.__setattr__(self, "reps", reps)
        if len(reps) != self.F + 1:
            raise ValueError("need one representative per state 0..F")
        for s, x in enumerate(reps):
            if not 0 <= x < (1 << self.F):
                raise ValueError("representative out of range")
            if weight(x) != s:
                raise ValueError(f"representative for state {s} must have weight {s}")
