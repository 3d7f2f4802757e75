"""Exact moment-map stratifications of weighted models over the rationals.

The package computes, in exact rational arithmetic throughout: closest-point
certificates on convex hulls of weight subsets, the index set of critical
betas, equivariant Poincare series with the perfection identity as a runtime
check, certified small perturbations with their stratification refinements,
cohomology presentations with stratum-ideal kernels and Betti numbers,
fixed-point residue pairings, and stratum labels for point configurations
on the line and the plane.

Exports resolve on first use: ``import moment_strata`` loads no submodule,
and reading an exported name imports the one module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the names the package exports from it
_EXPORTS = {
    "configs": ("StratumLabel affine_p1 classify_binary_form "
                "classify_p1_config classify_p2_config config_of infinity_p1 "
                "morse_label_of_config proj_point random_special_linear "
                "transform_config"),
    "errors": ("EpsilonSearchFailed FlagAmbiguity MomentStrataError "
               "NotCoprimeStable NotDivisible RefinementViolation "
               "TruncationTooSmall VerificationFailed WeylSymmetryRequired"),
    "geometry": ("BilinearForm ProjectionCertificate closest_point_to_origin "
                 "identity_form origin_in_hull origin_in_interior"),
    "kirwan": ("KernelIdeal Presentation betti_from_presentation "
               "in_relation_span line_product_presentation "
               "projective_space_presentation restrict_to_subspace "
               "sl2_kernel_ideal thom_gysin_lift tolman_weitsman_kernel "
               "torus_kernel_ideal torus_strata two_sided_kernel_report "
               "weyl_kernel_bijection_report"),
    "models": ("CriticalComponent IndexStratum ProfileClass WeightedModel "
               "WeylGroup classify_profile critical_components index_betas "
               "index_set is_semistable is_stable line_product_model "
               "profile_of_point projective_space_model quotient_top_degree "
               "shifted_submodel sl2_weyl sl3_torus_weyl stratum_codim "
               "strictly_semistable_witness weighted_model"),
    "perturb": ("EpsilonProposal RefinementReport is_generic perturbed_model "
                "propose_epsilon refinement_report"),
    "polynomials": "GradedPolynomial divide_exact polynomial_division",
    "residues": ("component_variables euler_class fixed_components "
                 "kernel_by_pairing raw_residue_sum residue_pairing "
                 "restrict_to_component restriction_matrix"),
    "series": ("PerfectionReport TruncatedSeries model_equivariant_series "
               "perfection_check quotient_poincare_polynomial "
               "semistable_series sl2_quotient_series"),
}

__all__ = sorted(" ".join(_EXPORTS.values()).split())


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names.split():
            value = getattr(import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
