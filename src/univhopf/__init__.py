"""Universal groups of gradings, Tambara/Manin universal coacting bi/Hopf
presentations, Hopf envelopes, and locally initial objects, computed exactly
over finite sets and rational vector spaces."""

from .coact import (
    FamilyMap,
    FDAlgebra,
    FDCoalgebra,
    MatrixPresentation,
    TensorValuedMap,
    check_axioms,
    cosupport_of_map,
    factor_through_universal,
    is_comeasuring,
    is_tensor_epimorphism,
    manin_end_presentation,
    support_of_comodule,
    support_of_map,
    tambara_presentation,
)
from .errors import InputError, PreconditionError, ResourceLimitError
from .finmonoid import (
    Congruence,
    FinMonoid,
    congruence_closure,
    grothendieck_group,
    is_group,
    quotient_monoid,
    unit_group,
)
from .grading import (
    Grading,
    coarsen_by_map,
    grading_support,
    universal_group_of_grading,
    validate_grading,
)
from .grouppres import (
    GroupPresentation,
    abelian_invariants,
    free_reduce_word,
    presentation,
    tietze_simplify,
    todd_coxeter_order,
)
from .hopf import (
    BialgebraPresentation,
    FinDimHopf,
    HopfPresentation,
    check_comap_well_defined,
    check_hopf_axioms_fd,
    dg_hopf_fixture,
    hopf_envelope_presentation,
    sets_cofree_hopf,
    universal_bialgebra_structure,
)
from .lio import (
    FiniteCategory,
    FunctorData,
    absolute_value,
    compare_by_absolute_value,
    lift_initial_object,
    locally_initial_objects,
    universal_object_of,
)
from .ncalg import (
    AlgebraPresentation,
    NCPoly,
    RewriteSystem,
    complete_rules_up_to,
    dim_normal_words,
    ideal_member_up_to,
    reduce_normal_form,
)
from .setsuniversal import (
    SetComodFrame,
    universal_acting_group_sets,
    universal_coacting_group_sets,
    universal_coacting_sets,
    universal_measuring_comonoid_sets,
)
from .signature import (
    FinSetMagma,
    FinVectMagma,
    OmegaSignature,
    enumerate_set_homs,
    is_linear_omega_morphism,
    is_set_homomorphism,
    omega_automorphisms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
