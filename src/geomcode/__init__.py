"""Incidence geometries from quadrics over odd finite fields, their
strongly regular point graphs, and the regular LDPC codes they define."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .constructions import (
    ConicLabel,
    HyperbolicLabel,
    IncidenceStructure,
    build_conic_structure,
    build_hyperbolic_structure,
)
from .fields import Field, field_from_string
from .gf2 import BinaryMatrix, RankPrediction, brouwer_predict, rank2
from .metrics import CycleReport, DistanceBounds, six_cycles, tanner_bounds, tanner_girth
from .sim import (
    ChannelConfig,
    LdpcCode,
    PointStats,
    SumProductDecoder,
    awgn_llrs,
    noise_sigma,
    random_regular_h,
    simulate_point,
    wilson_interval,
)
from .srpg import (
    AxiomViolation,
    DegenerateStructure,
    FeasibilityReport,
    SrgSpectrum,
    SrpgParams,
    check_gpg_axioms,
    check_strongly_regular,
    feasibility_check,
    spectrum,
)

# the imports above also bind the submodules, which are not public names
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
