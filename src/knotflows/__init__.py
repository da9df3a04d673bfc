"""Global Beltrami fields with prescribed linked periodic stream lines.

The pipeline: parametrize a link by trigonometric curves, frame each component
with a rotation-minimizing tube, prescribe Cauchy data w = grad(theta)
- z grad(z) on a ruled strip inside each tube, and fit one global plane-wave
Beltrami expansion (curl u = lambda u on all of R^3) to the data of every tube
at once. Verification recovers each periodic orbit, its Floquet multipliers,
tube confinement, and the pairwise Gauss linking numbers.
"""

from .charts import TubeChart, build_charts, tube_radius
from .config import RunConfig
from .curves import (ArcLengthCurve, EmbeddingError, FourierCurve, LinkSpec,
                     resample_arclength)
from .dynamics import (FloquetData, IntegrationError, NewtonFailure, OrbitEscape,
                       PeriodicOrbit, Trajectory, TubeModelField, integrate,
                       monodromy, refine_orbit)
from .field import (BeltramiExpansion, HelmholtzScalarExpansion, beltramize,
                    direction_set, make_basis, to_scalar_components)
from .fileio import (FileFormatError, load_field, load_link, load_seeds,
                     save_field, save_link, save_seeds)
from .fitting import (ErrorBudget, FitReport, design_matrix, fit_global,
                      make_error_budget, multi_index_count)
from .framing import FrameModel, frame_transport
from .marcher import (MarchError, MarchGrid, MarchResult, beltrami_residual,
                      chi_from_constraint, cross_validate, divergence_residual,
                      march, rho_step)
from .pipeline import (PipelineError, SynthesisResult, VerificationOutcome,
                       synthesize, verify)
from .strip import (CauchyData, StripMetric, build_cauchy_data, cauchy_field,
                    closedness_check, lyapunov_values, strip_metric,
                    strip_monodromy)
from .topology import (ConfinementCertificate, LinkingError, LinkingResult,
                       hausdorff_distance, linking_number, tube_confinement)
from . import presets

__version__ = "0.1.0"

__all__ = [
    "ArcLengthCurve", "BeltramiExpansion", "CauchyData",
    "ConfinementCertificate", "EmbeddingError", "ErrorBudget", "FileFormatError",
    "FitReport", "FloquetData", "FourierCurve", "FrameModel",
    "HelmholtzScalarExpansion", "IntegrationError", "LinkSpec", "LinkingError",
    "LinkingResult", "MarchError", "MarchGrid", "MarchResult", "NewtonFailure",
    "OrbitEscape", "PeriodicOrbit", "PipelineError", "RunConfig",
    "StripMetric", "SynthesisResult", "Trajectory",
    "TubeChart", "TubeModelField", "VerificationOutcome",
    "beltrami_residual", "beltramize", "build_cauchy_data", "build_charts",
    "cauchy_field", "chi_from_constraint", "closedness_check",
    "cross_validate", "design_matrix", "direction_set",
    "divergence_residual", "fit_global", "frame_transport", "hausdorff_distance",
    "integrate", "linking_number", "load_field", "load_link", "load_seeds",
    "lyapunov_values", "make_basis", "make_error_budget", "march",
    "monodromy", "multi_index_count", "presets",
    "refine_orbit", "resample_arclength", "rho_step", "save_field", "save_link",
    "save_seeds", "strip_metric", "strip_monodromy", "synthesize",
    "to_scalar_components", "tube_confinement", "tube_radius", "verify",
    "__version__",
]
