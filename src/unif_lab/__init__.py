"""Finite-truncation uniformity seminorms on bounded sequences.

Box norms over parallelepiped correlations, a sliding-window uniformity
proxy, dual functions and the explicit k = 2 dual-norm calculus, generators
for the standard example sequences (exponentials, polynomial and bracket
phases, Thue-Morse, random signs, block counterexamples, Heisenberg
nilsequences), weighted ergodic averages, and seeded verification suites
for every inequality the library relies on.
"""

from .errors import (DuplicateFrequencyError, FrequencyGridMismatch,
                     GeneratorSpecError, IncompatibleRangeError,
                     NegativityViolation, SequenceRangeError,
                     SupBoundViolation, UnifLabError)
from .seq_core import (INTERVAL, AvgReport, ComplexSeq, DomainMode,
                       IntervalSpec, add, conjugate, constant_seq, cyclic,
                       from_samples, interval_average, product, scale, shift,
                       sup_window_average, wrap_cyclic)
from .nilmanifold import (HeisElem, HeisPoint, IDENTITY_POINT, cube_orbit,
                          heis_inv, heis_mul, heis_pow, heis_reduce,
                          nilsequence)
from .generators import (BlockSpec, TrigPoly, block_counterexample_seq,
                         exp_seq, genpoly_seq, parse_generator,
                         poly_phase_seq, quad_phase_seq, rademacher_seq,
                         thue_morse_seq, trig_poly_seq)
from .uniformity import (BoxParams, CsgReport, NormReport, SuiteReport,
                         VdcReport, box_correlation, box_norm,
                         box_powered_signed, csg_check, u1_norm,
                         uniformity_norm_proxy, vdc_bound)
from .duality import (DirectBoundReport, SpectrumReport, dft_coefficients,
                      direct_bound_check, dual_function, dual_norm_k2,
                      dual_pairing, hk_norm_k2, inverse_search,
                      spectrum_probe)
from .ergodic_weights import (CauchyReport, DynSystem, cauchy_scan,
                              heis_system, named_observable, rotation, skew,
                              weighted_multiple_average, wiener_wintner_scan)

__version__ = "0.1.0"
