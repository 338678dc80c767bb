"""Bi-parameter pseudo-differential operators on a discretized torus.

Quantization, symbols whose builtins declare their class parameters
analytically, dyadic/cone decompositions, and the experiment layer that
checks boundedness, almost-orthogonality, kernel decay, and sharpness at
desk scale; every report records the class parameters of its symbol.
"""

__version__ = "0.1.0"

from .grid import (GridSpec, SampledField, DyadicCube, make_grid,
                   dft_forward, dft_inverse, lp_norm, bmo_norm,
                   read_field, write_field)
from .decompose import (DecompositionIndex, Mollifier, phi_j, delta_ell,
                        cube_partition, default_ell_max, derived_symbol,
                        mollifier_lambda, theta_symbol)
from .symbols import (SymbolDescriptor, make_symbol, builtin, BUILTIN_PARAMS,
                      smooth_step, varphi)
from .operators import (QuantizedOperator, quantize, apply, apply_at,
                        adjoint_apply, kernel_slice, kernel_l1)
from .analysis import (LinearFieldMap, OpNormEstimate,
                       adjoint_product, l2_opnorm, fit_line,
                       ortho_experiment, kernel_decay_experiment,
                       l2_uniformity_sweep, bmo_experiment, sharpness_scan,
                       commutator_check, test_battery, band_limited_battery,
                       adversarial_battery)

__all__ = [name for name in dir() if not name.startswith("_")]
