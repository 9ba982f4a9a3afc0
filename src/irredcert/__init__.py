"""Irreducibility certificates for integral group representations.

The criterion: saturate a representation over Q or Q(t) to a stable free
lattice over Z or Z[t], reduce modulo a prime with a regular local
localization, and test the reduction with the MeatAxe; an irreducible
reduction certifies irreducibility of the input.  The certificate records
enough to replay the whole run.  Also computes group-cohomological
obstruction data (commutant, H^1, H^2 of the adjoint module) for finite
groups, predicting the shape of the universal deformation ring in the
unobstructed case.
"""

from .certify import (Certificate, TOOLKIT_VERSION, certify,
                      load_certificate, verify)
from .cohomology import (close_group, cohomology_dims, module_action,
                         obstruction_report)
from .errors import IrredcertError
from .lattices import PrimeSpec, reduce_rep, saturate
from .matrices import Matrix
from .meataxe import endo_dim, is_absolutely_irreducible, is_irreducible
from .oracle import count_invariant, invariant_subspaces
from .reps import (Representation, adjoint_rep, conjugate, direct_sum,
                   evaluate, load_rep, rep_from_json, rep_to_json, trivial_rep)
from .rings import (QQ, ZZ, ExtensionField, PolynomialRingZ, PrimeField,
                    RationalFunctionField, ring_from_json)

__version__ = TOOLKIT_VERSION

__all__ = [
    "Certificate", "ExtensionField", "IrredcertError", "Matrix",
    "PolynomialRingZ", "PrimeField", "PrimeSpec", "QQ",
    "RationalFunctionField", "Representation", "TOOLKIT_VERSION", "ZZ",
    "adjoint_rep", "certify", "close_group", "cohomology_dims", "conjugate",
    "count_invariant", "direct_sum", "endo_dim", "evaluate",
    "invariant_subspaces", "is_absolutely_irreducible", "is_irreducible",
    "load_certificate", "load_rep", "module_action", "obstruction_report",
    "reduce_rep", "rep_from_json", "rep_to_json", "ring_from_json",
    "saturate", "trivial_rep", "verify",
]
