"""Exact half-integer values stored as integer counts of halves."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def half_text(units: int) -> str:
    """units half-units as text: "3" for 6, "7/2" for 7."""
    return str(units // 2) if units % 2 == 0 else f"{units}/2"


@dataclass(frozen=True, order=True)
class HalfInt:
    """A nonnegative multiple of 1/2, kept in integer half-units.

    All matching values in this package are half-integral, so arithmetic
    stays in ints; floats never appear.
    """

    units: int

    def __post_init__(self) -> None:
        if not isinstance(self.units, int):
            raise TypeError(f"units must be int, got {type(self.units).__name__}")
        if self.units < 0:
            raise ValueError(f"negative half-unit count: {self.units}")

    def as_fraction(self) -> Fraction:
        return Fraction(self.units, 2)

    def __str__(self) -> str:
        return half_text(self.units)

    def __repr__(self) -> str:
        return f"HalfInt({self.units})"
