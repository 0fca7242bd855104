"""Fixed-point torus values on big-integer mantissas.

A ``FixedPoint`` holds ``mantissa / 2**scale_bits`` exactly.  Every quantity
that feeds a membership test ``|q.alpha - p - gamma| <= psi(|q|)`` lives in
this representation (or in ``fractions.Fraction``); machine floats are only
ever produced for report formatting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# the fewest scale_bits any rounding may use; count adds the bits of 2Q+1
MIN_SCALE_BITS = 64
DEFAULT_SCALE_BITS = 192


class PrecisionError(ValueError):
    """Requested operation exceeds the certified precision range."""


def _check_scale(scale_bits: int) -> None:
    if scale_bits < MIN_SCALE_BITS:
        raise PrecisionError(
            f"scale_bits={scale_bits} below minimum {MIN_SCALE_BITS}"
        )


@dataclass(frozen=True)
class FixedPoint:
    """Exact dyadic rational ``mantissa / 2**scale_bits``."""

    mantissa: int
    scale_bits: int = DEFAULT_SCALE_BITS

    def __post_init__(self) -> None:
        _check_scale(self.scale_bits)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_fraction(cls, value: Fraction, scale_bits: int = DEFAULT_SCALE_BITS,
                      ) -> "FixedPoint":
        """Round ``value`` down to the nearest multiple of 2**-scale_bits."""
        _check_scale(scale_bits)
        num, den = value.numerator, value.denominator
        return cls((num << scale_bits) // den, scale_bits)

    # -- conversions ---------------------------------------------------

    def to_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.scale_bits)

    # -- value equality --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixedPoint):
            return NotImplemented
        return self.to_fraction() == other.to_fraction()

    def __hash__(self) -> int:
        return hash(self.to_fraction())

    def __repr__(self) -> str:
        return f"FixedPoint({self.mantissa}, scale_bits={self.scale_bits})"

