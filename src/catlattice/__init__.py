"""Driven-dissipative Bose-Hubbard lattice toolkit.

Steady states of the quadratically driven lattice (exact and corner-space),
parity/entropy observables, the cat-state to spin-model mapping, and the
finite-size-scaling machinery for locating the critical point.
"""

__version__ = "0.1.0"

# numpy >= 2 imports numpy.ma on the first np.median (find_crossing); load it
# here so that cost falls at import, not inside the first analysis
import numpy.ma  # noqa: F401

from .fock import (FockSpace, annihilation_op, embed_site_op, number_op,
                   parity_op)
from .lattice import (LatticeGeometry, ModelParams, chain, rectangle,
                      geometry_from_size, build_hamiltonian,
                      build_jump_operators)
from .liouville import (vectorize_lindbladian, steady_state_direct,
                        steady_state_eigen, steady_state_time, time_evolve,
                        solve_steady_state, DensityMatrix, SteadyStateResult)
from .observables import (parity_expectation, von_neumann_entropy,
                          site_density, correlation, trace_distance)
from .corner import (CornerBasis, corner_steady_state, convergence_sweep,
                     merge_spaces, project_pair)
from .spinmap import (CatBasis, SpinModelCoefficients, cat_states,
                      coherent_vector, required_n_max, annihilation_on_cats,
                      build_xy_hamiltonian, validate_mapping, estimate_alpha)
from .scaling import (ScalingDataset, CollapseResult, EntropyPeakFit, rescale,
                      find_crossing, collapse_quality, fit_entropy_peak,
                      EXPONENTS_1D, EXPONENTS_2D)
from .config import RunConfig, ConfigError, load_preset, preset_names
from .store import SweepStore, read_rows
from .sweep import run_sweep, solve_point
from .analyze import analyze_rows, AnalysisError
from .validate import validate_suite
