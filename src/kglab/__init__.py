"""Exact-arithmetic laboratory for inhomogeneous Diophantine counting on T^2.

Measures, overlaps and counting functions of the sets
``{alpha : ||q.alpha - gamma|| <= psi(|q|)}`` over sup-norm shells of Z^2,
with exact rational/fixed-point arithmetic end to end.
"""

__version__ = "0.1.0"

from .fixedpoint import DEFAULT_SCALE_BITS, FixedPoint, PrecisionError
from .surd import QuadraticSurd, surd_eval
from .rng import RngStream, derive_seed
from .psifunc import ApproxFunction, Clamp, PowerLaw, TablePsi, Window, eval_psi
from .cfrac import CFExpansion, cf_expand, cf_to_surd, convergents, make_liouville
from .witness import NonLiouvilleWitness, WitnessFitFailure, fit_witness, vanish_threshold
from .lattice import LatticeVector, shell, tau, gcd_power_sum
from .torus import (
    TorusSet1D,
    measure_2d,
    overlap_2d,
    overlap_2d_grid_oracle,
    overlap_exact_1d,
    overlap_sweep_oracle,
)

__all__ = [
    "DEFAULT_SCALE_BITS",
    "FixedPoint",
    "PrecisionError",
    "QuadraticSurd",
    "surd_eval",
    "RngStream",
    "derive_seed",
    "ApproxFunction",
    "PowerLaw",
    "TablePsi",
    "Clamp",
    "Window",
    "eval_psi",
    "CFExpansion",
    "cf_expand",
    "cf_to_surd",
    "convergents",
    "make_liouville",
    "NonLiouvilleWitness",
    "WitnessFitFailure",
    "fit_witness",
    "vanish_threshold",
    "LatticeVector",
    "shell",
    "tau",
    "gcd_power_sum",
    "TorusSet1D",
    "measure_2d",
    "overlap_2d",
    "overlap_2d_grid_oracle",
    "overlap_exact_1d",
    "overlap_sweep_oracle",
]
