"""qcrit: base-p digit combinatorics and truncated power series over
finite fields, with a verification harness for the identities that tie
them together and a CLI for experimentation."""

from .digits import (AdmissibleQuadruple, AdmissibleWitness, PrimePower,
                     WitnessError, admissible_quadruples, admissible_witness,
                     coprime_part, critical_base_set, critical_members,
                     digital_cmp, digital_key, from_digits, is_admissible,
                     is_critical, lucas_binom, min_residue, orbit_id,
                     orbit_min, orbit_residues, ord_p, p_core, p_defect,
                     to_digits)
from .finite_field import FieldElement, FieldSpec, default_modulus, field_make
from .series import (AdditiveSeries, TruncSeries, artin_hasse,
                     critical_projection, critical_projection_formula,
                     log_deriv, orbit_series, random_gamma, random_unit,
                     solve_log_deriv, twisted_orbit_series)
from .theorems import (VerifyReport, desk_bounds, explore_generators,
                       verify_admissible_order, verify_admissible_witness,
                       verify_all, verify_coleman, verify_cyclic_digits,
                       verify_equivariance, verify_logderiv, verify_orbit_min,
                       verify_projection_formula)

__version__ = "0.1.0"
