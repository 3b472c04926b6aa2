"""The adjugate inverse, kept as the oracle of the cocycle inverse.

vbx takes the inverse of a transition from the cocycle, g_ij(x)^-1 =
g_ji(tau_ij(x)), in the tensor, dual and Hom constructions and in the
field check. Before that, each of them built the inverse symbolically, as
adjugate over determinant (symmat.mat_inverse), and checked an
(r,s)-field as a section of the bundle of (r,s)-tensors. These are those
definitions, which the constructions and checks must agree with on
bundles that satisfy their cocycle.
"""

from dataclasses import replace

from vbx import symmat
from vbx.bundles import check_section
from vbx.spec import TensorFieldSpec, make_bundle, tensor_dim

mat_inverse = symmat.mat_inverse  # held here, so a test that patches symmat's is not seen


def inverse_transpose(e) -> tuple:
    return symmat.mat_transpose(mat_inverse(e.g))


def tensor_bundle(B, r: int, s: int):
    """r copies of the adjugate inverse-transpose, then s of the transition."""
    dim = tensor_dim(B.fiber_dim, r, s, "tensor")
    transitions = []
    for e in B.edges:
        vec_part = symmat.mat_kron_power(inverse_transpose(e), r) if r else symmat.mat_identity(1)
        cov_part = symmat.mat_kron_power(e.g, s) if s else symmat.mat_identity(1)
        transitions.append((e.overlap.frm, e.overlap.to, symmat.mat_kron(vec_part, cov_part)))
    return make_bundle(B.base, dim, B.field, transitions,
                       derivation={"construction": "tensor", "r": r, "s": s})


def dual_bundle(B):
    return replace(tensor_bundle(B, 1, 0), derivation={"construction": "dual"})


def hom_bundle(B1, B2):
    transitions = [(e1.overlap.frm, e1.overlap.to, symmat.mat_kron(e2.g, inverse_transpose(e1)))
                   for e1, e2 in zip(B1.edges, B2.edges)]
    return make_bundle(B1.base, B1.fiber_dim * B2.fiber_dim, B1.field, transitions,
                       derivation={"construction": "hom"})


def check_field(A, samples: int, tol: float, seed: int):
    """A's compatibility as that of a section of tensor_bundle(A.bundle,
    A.r, A.s), with A's rules."""
    TB = tensor_bundle(A.bundle, A.r, A.s)
    return check_section(TensorFieldSpec(TB, 0, 1, A.per_chart, A.rules), samples, tol, seed)
