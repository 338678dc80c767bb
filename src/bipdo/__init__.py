"""Bi-parameter pseudo-differential operators on a discretized torus.

Quantization, symbol classes with measurable seminorms, dyadic/cone
decompositions, and the experiment layer that checks boundedness,
almost-orthogonality, kernel decay, and sharpness at desk scale.
"""

__version__ = "0.1.0"

from .grid import (GridSpec, SampledField, DyadicCube, make_grid,
                   dft_forward, dft_inverse, lp_norm, linf_norm, bmo_norm,
                   read_field, write_field)
from .decompose import (DecompositionIndex, Mollifier, smooth_step, varphi,
                        phi_j, delta_ell, cube_partition, default_ell_max,
                        derived_symbol, mollifier_lambda)
from .symbols import (SymbolDescriptor, ProbeSpec, make_symbol, default_probe,
                      seminorm, class_check, builtin, bessel_modulate,
                      scale_symbol, BUILTIN_PARAMS)
from .operators import (QuantizedOperator, quantize, apply, apply_at,
                        adjoint_apply, kernel_slice, kernel_l1,
                        kernel_l1_split, dilate_symbol)
from .analysis import (LinearFieldMap, OpNormEstimate, OrthoMatrix,
                       KernelDecayReport, BoundednessReport, SharpnessTable,
                       compose, adjoint_of, l2_opnorm, fit_line,
                       ortho_experiment, kernel_decay_experiment,
                       l2_uniformity_sweep, bmo_experiment, sharpness_scan,
                       commutator_check, test_battery, band_limited_battery,
                       adversarial_battery)

__all__ = [name for name in dir() if not name.startswith("_")]
