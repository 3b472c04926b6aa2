"""Finite-dimensional multilinear algebra and smooth vector bundles in charts.

Everything is local and concrete: a base manifold is an atlas of open
boxes glued by transition maps, a bundle is a matrix-valued cocycle on
the overlaps, and all claims about them are checked numerically at
sampled points with the results collected into reports. There is one
tensor-field type, TensorFieldSpec; a field on a single box lives on
local_bundle(box, d), and pulling one back along a smooth map is a
morphism pullback (map_pullback_rs, map_pullback_cov). A frame is a
BundleMorphismSpec too: the local trivialization onto the bundle from its
fiber over one chart, with the frame matrix as fiber map.

The package is lazy (PEP 562): `import vbx` runs no submodule. Each public
name below is imported from its submodule when it is first read, so
`vbx.check_vb` loads vbx.bundles and what it needs, and a command line
run loads only the modules its command uses.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it; a submodule maps to itself.
_HOME = {name: module for module, names in {
    "bundles": """bundles LOCAL_CHART BaseAtlasSpec BundleEdge BundleMorphismSpec ChartSpec
        OverlapSpec TensorFieldSpec TotalPoint VectorBundleSpec change_chart check_base_atlas
        check_frame check_section check_vb dual_frame field_add field_eval field_fmul
        field_smul frame_from_trivialization frame_matrix_at local_bundle make_atlas
        make_bundle make_field make_frame make_morphism make_section make_total_point
        transition_eval zero_section""",
    "calculus": "calculus SmoothMap compose_maps eval_map jacobian make_smooth_map",
    "constructions": """constructions base_restriction check_morphism check_tensor_field
        compose_morphism direct_product dual_bundle field_product hom_bundle identity_morphism
        induced_bundle local_expression map_pullback_cov map_pullback_rs subbundle_check
        tangent_bundle tensor_bundle vb_pullback_cov vb_pullback_rs whitney_sum""",
    "errors": """errors BaseMismatch ChartAssignmentError CocycleViolation DomainViolation
        EvalError FileError NotAnIsomorphism ParseError ShapeMismatch SingularFrame SpecError
        UnknownSymbol UnsupportedField VbxError""",
    "expr": "expr compile_exprs enclose eval_expr parse_expr run_program to_string",
    "geometry": "geometry Box make_box sample_box sample_region",
    "linalg": """linalg FieldTag LinearMap OrderedBasis VectorSpace compose_linear dual_basis
        invert_linear make_basis make_linear make_space""",
    "pullbacks": "pullbacks rs_pullback",
    "report": """report CheckRecord CheckReport format_report make_report merge_reports
        report_to_json""",
    "specio": "specio gallery_path list_gallery load_spec save_spec",
    "symmat": "symmat",
    "tensors": """tensors Tensor basis_tensor digits_to_index index_to_digits make_tensor
        scalar_mul tensor_add tensor_eval tensor_product""",
}.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
