"""The package's public surface: the paper's objects and operations."""

import negcurve

PUBLIC = {
    "ConsistencyError", "RingElem", "RingParams", "invert_unit", "plus_part", "sector_split",
    "truncate",
    "TwistedSection", "cone_check", "h0_basis", "h0_dim", "h1_dim",
    "ExtClass", "Mat2", "ModuliParams", "basis_W", "reduce_cocycle", "restrict_level",
    "CocyclePair", "GroupElem", "act", "cocycle_matrices", "induced_inverse",
    "induced_product", "sample_ext_class", "sample_group_elem", "verify_groupoid",
    "HomProfile", "brute_force_hom", "hom_ext_dims", "isom_decide", "obstruction",
    "witness_condition",
}


def test_all_is_exactly_the_public_names():
    assert len(PUBLIC) == 33
    assert len(negcurve.__all__) == len(PUBLIC)
    assert set(negcurve.__all__) == PUBLIC
    for name in negcurve.__all__:
        assert getattr(negcurve, name) is not None


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from negcurve import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
