"""Exact symbolic toolkit for rank-2 bundles on truncated neighborhoods
of a rational curve of self-intersection -k.

The package computes normal forms of extension classes, the corrected
fractional-linear action of bundle automorphisms on them, explicit
chart-regular isomorphism pairs, an exact isomorphism decision, and
Hom/Ext dimensions, all over the rationals with zero tolerance.
"""

from .ring import (ConsistencyError, RingElem, RingParams, invert_unit, plus_part,
                   sector_split, truncate)
from .sections import TwistedSection, cone_check, h0_basis, h0_dim, h1_dim
from .extensions import (ExtClass, Mat2, ModuliParams, basis_W, reduce_cocycle,
                         restrict_level)
from .groupoid import (CocyclePair, GroupElem, act, cocycle_matrices, induced_inverse,
                       induced_product, sample_ext_class, sample_group_elem, verify_groupoid)
from .homspaces import HomProfile, brute_force_hom, hom_ext_dims, isom_decide, obstruction

__all__ = [
    "ConsistencyError", "RingElem", "RingParams", "invert_unit", "plus_part",
    "sector_split", "truncate",
    "TwistedSection", "cone_check", "h0_basis", "h0_dim", "h1_dim",
    "ExtClass", "Mat2", "ModuliParams", "basis_W", "reduce_cocycle", "restrict_level",
    "CocyclePair", "GroupElem", "act", "cocycle_matrices", "induced_inverse",
    "induced_product", "sample_ext_class", "sample_group_elem", "verify_groupoid",
    "HomProfile", "brute_force_hom", "hom_ext_dims", "isom_decide", "obstruction",
]

__version__ = "0.1.0"
