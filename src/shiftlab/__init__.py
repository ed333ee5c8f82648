"""shiftlab: a numerical laboratory for nonsingular Bernoulli shifts."""

__version__ = "0.1.0"

from .measures import (DensityFamily, FiniteProductMeasure, ZeroMassError,
                       doeblin_delta, iid, iid_binary, inverse_sqrt,
                       log_damped, log_rn_shift, make_mu_pc, make_nu_c,
                       parse_measure, rpm)
from .sampling import (SeedStream, Window, sample_density_window,
                       sample_window)
from .markers import (good_block_sequence, good_prob_lower, good_starts,
                      special_sequence)
from .matching import (MatchingAssignment, dominates, meshalkin_match,
                       required_d)
from .factor import (SplitCodeSpec, SplitTuples, beta_for, psi_split,
                     run_iid_factor, spread_bits)
from .typeiii import (HMapSpec, TypeIIISpec, erase_negative_side, f_family,
                      g_family, h_apply, lift_lambda_on_negative,
                      mix_disjoint, ratio_profile, safe_zone,
                      shift_family)
from .speedups import (block_kakutani_sum, dissipativity_partial,
                       eta_marginal, index_report, kappa_marginal,
                       pi_interleave, rpm_scaling_identity, zeta)
