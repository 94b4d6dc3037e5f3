"""Forward and inverse spectral toolkit for a weighted two-component
boundary value problem on [0, pi] with lambda-dependent boundary forms and a
single weight discontinuity."""

__version__ = "0.1.0"

from .errors import (ConfigError, DiracBVPError, DomainError, GridMismatchError,
                     IntegrationOverflowError, MissingRootError,
                     NonProportionalError, PoleError, RootRefinementError)
from .model import (BoundaryParams, PotentialSpec, ProblemConfig, Weight,
                    config_from_dict, config_to_dict, load_config, mu, omega_at,
                    rho_at, save_config)
from .integrator import Trajectory, phi, propagate, psi, solution_c
from .charfn import CharEval, asymptotic_seed, chi, delta, delta_dot
from .eigensolver import (SpectralDataSet, SpectralDatum, beta,
                          find_eigenvalues, norming_constant,
                          orthogonality_check)
from .weyl import (WeylSample, residue_check, weyl_direct, weyl_sample,
                   weyl_series, weyl_solution)
from .expansion import (HElement, coefficients, eigen_element,
                        element_from_functions, expand, gram, inner,
                        parseval_defect, resolvent_apply, resolvent_residual)
from .inverse import (InverseProblem, PotentialBasis, ReconstructionResult,
                      misfit, reconstruct, synthesize_data, uniqueness_probe)

__all__ = [name for name in dir() if not name.startswith("_")]
