"""Exact toolkit for the Ceresa-Zharkov class of graphs and tropical curves.

Computes the polynomial polarization matrix of a graph's cycle basis, the
action of the associated unipotent multitwist on the third exterior power of
a symplectic lattice, and decides triviality of Ceresa-Zharkov classes three
ways: integer-linear feasibility over polynomial coefficients (Hermite normal
form), lattice membership at integer edge lengths, and the forbidden-minor
characterization (no K4 or L3 minor).  Reference implementations that only
serve as cross-checks (Smith normal form, determinants, the naive minor
search, the element-level psi map) live with the tests, in
`tests/*_oracles.py`.
"""

__version__ = "0.1.0"

from .polyring import IntPolynomial, Monomial, parse_polynomial
from .intlin import (DiophantineResult, IntMatrix, hermite_normal_form,
                     lattice_membership, solve_diophantine)
from .graph import (CycleBasisContext, Edge, MultiGraph, TropicalCurve,
                    blocks, build_cycle_context, contract_edge, delete_edge,
                    genus, load_graph_file, parse_graph_text,
                    render_graph_text, specialize_Q, stabilize,
                    subdivide_edge)
from .minors import (MinorWitness, canonical_form, enumerate_graphs,
                     has_minor, is_hyperelliptic_type)
from .extalg import (HElement, LElement, delta_G_H, delta_G_L, image1_coeffs,
                     image2_coeffs, pairing)
from .ceresa import (V_TAU_K4, V_TAU_L3, CeresaCocycle, CZClass,
                     TrivialityVerdict, classify, compute_w, image_lattice,
                     is_cz_trivial_curve, is_cz_trivial_graph,
                     pushforward_contract, pushforward_subdivide, specialize)

__all__ = [
    "IntPolynomial", "Monomial", "parse_polynomial",
    "DiophantineResult", "IntMatrix", "hermite_normal_form",
    "lattice_membership", "solve_diophantine",
    "CycleBasisContext", "Edge", "MultiGraph", "TropicalCurve",
    "blocks", "build_cycle_context", "contract_edge", "delete_edge",
    "genus", "load_graph_file", "parse_graph_text", "render_graph_text",
    "specialize_Q", "stabilize", "subdivide_edge",
    "MinorWitness", "canonical_form", "enumerate_graphs", "has_minor",
    "is_hyperelliptic_type",
    "HElement", "LElement", "delta_G_H", "delta_G_L", "image1_coeffs",
    "image2_coeffs", "pairing",
    "V_TAU_K4", "V_TAU_L3", "CeresaCocycle", "CZClass", "TrivialityVerdict",
    "classify", "compute_w", "image_lattice", "is_cz_trivial_curve",
    "is_cz_trivial_graph", "pushforward_contract", "pushforward_subdivide",
    "specialize",
]
