"""Multisymbols: one representative symbol per frame state.

A multisymbol fixes, for every state s, which weight-s symbol the reordering
encoder sends when the frame happens to contain s packets addressed 1. It is
minimal when every pair of representatives is as close in Hamming distance as
their weight gap allows.
"""

from dataclasses import dataclass

from .frame_space import symbol_string, weight


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


def basic_multisymbol(F):
    """The multisymbol whose state-s representative is F-s zeros then s ones."""
    return Multisymbol(F, tuple((1 << s) - 1 for s in range(F + 1)))


def is_minimal(m):
    """Whether every representative pair is as close as its weight gap allows.

    reps[s] has weight s, so reps[i] and reps[j] are j - i apart exactly when
    one contains the other: the chain test that `_is_staircase_orbit` runs.
    """
    return all(not lo & ~hi for lo, hi in zip(m.reps, m.reps[1:]))


def multisymbol_strings(m):
    """Representatives as printed bit strings, state 0 first."""
    return [symbol_string(m.F, x) for x in m.reps]
