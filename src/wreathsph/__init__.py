"""Exact spherical functions of wreath-product Gelfand triples.

The names below are read from their submodules on first use, so that
importing one submodule (wreathsph.groups, say) does not load the rest.
"""

from importlib import import_module

_EXPORTS = {
    "cyclo": ("CycNum", "cyc", "parse_cyc", "zeta"),
    "groups": (
        "Caps",
        "CharacterTable",
        "ClassFusion",
        "FiniteGroup",
        "bundled",
        "fuse_classes",
        "linear_characters",
        "load_group",
        "load_table",
        "twisted_indicator",
        "validate_table",
    ),
    "partitions": ("MultiPartition", "Partition", "doubling", "multipartitions", "partitions_of"),
    "spherical": (
        "SphericalContext",
        "SphericalTable",
        "build_table",
        "ch_image_product",
        "ch_map",
        "coset_order",
        "reconcile",
    ),
    "symfunc": ("SymFuncElem", "jack_p_expr", "schur_p_expr", "schurq_p_expr", "sym_character"),
    "wreath": (
        "PairedChar",
        "WreathElement",
        "class_type",
        "coset_rep",
        "decompose_induced",
        "irrep_label_set",
        "wreath_character",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
