"""Global Beltrami fields with prescribed linked periodic stream lines.

The pipeline: parametrize a link by trigonometric curves, frame each component
with a rotation-minimizing tube, prescribe Cauchy data w = grad(theta)
- z grad(z) on a ruled strip inside each tube, and fit one global plane-wave
Beltrami expansion (curl u = lambda u on all of R^3) to the data of every tube
at once. Verification recovers each periodic orbit, its Floquet multipliers,
tube confinement, and the pairwise Gauss linking numbers.

The package namespace holds the certifier alone. The paper's inductive
scaffolding (knotflows.paper) and the local-existence marcher
(knotflows.marcher) are imported by name where they are wanted.
"""

from .charts import TubeChart, build_charts, tube_radius
from .config import RunConfig
from .curves import (ArcLengthCurve, EmbeddingError, FourierCurve, LinkSpec,
                     resample_arclength)
from .dynamics import (DynamicsError, FloquetData, IntegrationError, NewtonFailure,
                       OrbitEscape, PeriodicOrbit, Trajectory, integrate, monodromy,
                       refine_orbit)
from .field import BeltramiExpansion, direction_set, make_basis
from .fileio import (FileFormatError, load_field, load_link, load_seeds,
                     save_field, save_link, save_seeds)
from .fitting import FitReport, design_matrix, fit_global
from .framing import FrameModel, frame_transport
from .pipeline import (PipelineError, SynthesisResult, VerificationOutcome,
                       synthesize, verify)
from .strip import CauchyData, build_cauchy_data
from .topology import (ConfinementCertificate, LinkingError, LinkingResult,
                       linking_number, tube_confinement)
from . import presets

__version__ = "0.1.0"

__all__ = [
    "ArcLengthCurve", "BeltramiExpansion", "CauchyData",
    "ConfinementCertificate", "DynamicsError", "EmbeddingError", "FileFormatError",
    "FitReport", "FloquetData", "FourierCurve", "FrameModel",
    "IntegrationError", "LinkSpec", "LinkingError", "LinkingResult",
    "NewtonFailure", "OrbitEscape", "PeriodicOrbit", "PipelineError", "RunConfig",
    "SynthesisResult", "Trajectory", "TubeChart",
    "VerificationOutcome", "build_cauchy_data", "build_charts",
    "design_matrix", "direction_set", "fit_global",
    "frame_transport", "integrate", "linking_number", "load_field",
    "load_link", "load_seeds", "make_basis", "monodromy", "presets",
    "refine_orbit", "resample_arclength", "save_field", "save_link",
    "save_seeds", "synthesize", "tube_confinement", "tube_radius", "verify",
    "__version__",
]
