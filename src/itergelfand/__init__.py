"""Singular solutions and bifurcation branches for iterated-exponential ball problems."""

from .branch import (BifurcationCurve, BranchPoint, ShootError, intersection_count,
                     shoot_regular, trace_curve, turning_points)
from .corrector import (EtaSolution, EtaSpaceConfig, PicardConvergenceError, PsiKernel,
                        eta_derivative, phi_m, phi_m1, picard_solve)
from .equivalence import EquivalenceTrace, equivalence_report, miyamoto_profile, x_star, y_star
from .expansions import (ExpansionReport, expansion_grad_m, expansion_grad_m1,
                         expansion_w_m, expansion_w_m1, residual_order)
from .singular import (DescentError, SingularSolution, assemble_w, build_singular,
                       integrate_down, ode_residual)
from .towers import (TowerDomainError, TowerOverflowError, f_tail, f_tail_inverse,
                     f_tail_inverse_log, f_tail_log, g_deriv, g_tower, h_deriv,
                     h_tower, tower_domain_lower)
from .transform import (LogProfile, RadialProfile, gradient_magnitude, log_to_radial,
                        radial_to_log, read_profile_csv, write_profile_csv)

__version__ = "0.1.0"
