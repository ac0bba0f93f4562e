"""Exact computational toolkit for plane curves over Q: linear systems with
base-point multiplicities, intersection numbers, point-configuration
invariants, and certified plurisubharmonic potential constructions."""

from .config import (IncidenceStructure, MSequence, PointSet,
                     enumerate_4lines, m_sequence, realize_structure)
from .construct import (ConstructionReport, PotentialCertificate,
                        construct_certificate, construct_certificate_m3_9,
                        construct_certificate_m3_high, construct_sextic_pair,
                        make_certificate, verify_certificate)
from .currents import (ArrangementCurrent, estimate_growth,
                       estimate_pole_weight, lelong_ball_mass, lelong_exact,
                       mass_inequality_check, sharpness_example)
from .curves import (bezout_table, conic_rank, cubic_is_irreducible,
                     intersection_multiplicity, resultant_multiplicity)
from .errors import (ParseError, PreconditionError, UnsupportedInstanceError,
                     VerificationError)
from .exactpoly import HomPoly, ProjPoint
from .linsys import LinearSystem, VanishingCondition, build_system

__version__ = "0.1.0"

__all__ = [
    "ArrangementCurrent", "ConstructionReport", "HomPoly",
    "IncidenceStructure", "LinearSystem", "MSequence", "ParseError",
    "PointSet", "PotentialCertificate", "PreconditionError", "ProjPoint",
    "UnsupportedInstanceError", "VanishingCondition", "VerificationError",
    "bezout_table", "build_system", "conic_rank", "construct_certificate",
    "construct_certificate_m3_9", "construct_certificate_m3_high",
    "construct_sextic_pair", "cubic_is_irreducible", "enumerate_4lines",
    "estimate_growth", "estimate_pole_weight", "intersection_multiplicity",
    "lelong_ball_mass", "lelong_exact", "m_sequence", "make_certificate",
    "mass_inequality_check", "realize_structure",
    "resultant_multiplicity", "sharpness_example", "verify_certificate",
]
