"""Numerical thermodynamic formalism for continued-fraction skew products.

Layers, bottom up: exact symbolic coding on pair digit words (``words``),
fiber contraction families with certified constants (``systems``), exact
digit-marginal exponents of a chain (``moments``), transfer operator Gibbs
states and pressure (``thermo``), dimension formulas
(``dimension``), Monte Carlo estimators (``empirics``), and a batch CLI
(``cli``).
"""

from .errors import (BracketFailure, ConfigError, DegenerateExponent,
                     DomainEscape, EnumerationCapExceeded,
                     ExponentNotConverged, FiberdimError, InsufficientScales,
                     InvalidWord, NonPrimitive, PerronNotConverged,
                     SummabilityFailure)
from .words import (ComposedMap, Interval, cf_value_float,
                    certify_derivative_sup, induced_ifs_maps, pair_alphabet,
                    rho0_value)
from .systems import (Disk, SimilaritySchedule, SmaleSystem, SystemReport,
                      image_disk, make_system, verify_system)
from .moments import MarginalExponent, lyapunov_marginal_exact
from .thermo import (GeometricPotential, GibbsApprox, MarginalEntropy,
                     MeasureStats, PressureEstimate, TablePotential, entropy,
                     gibbs_markov, lyapunov_fiber_exact, marginal_entropy,
                     measure_stats, pressure_cylinder_sum,
                     pressure_derivative_check)
from .dimension import (BowenResult, SummabilityReport, SweepResult,
                        bowen_dimension, branch_value, global_dimension,
                        moran_root, summability_scan, variational_sweep)
from .empirics import (BoxDimEstimate, ExactnessReport, LocalDimEstimate,
                       PointCloud, box_dimension, exactness_report,
                       local_dimension, sample_measure)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
