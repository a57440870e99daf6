"""Finite topo-groups: subgroup lattices, topo-systems, filters and theorems."""

from .groups import (
    FiniteGroup,
    Homomorphism,
    NotAHomomorphismError,
    OrderCapExceededError,
    Subgroup,
    TopoGroupError,
    UnknownKindError,
    build_group,
    make_homomorphism,
    verify_group_axioms,
)
from .lattice import (
    NotNormalError,
    SubgroupLattice,
    UnsupportedVarietyError,
    automorphisms,
    brute_force_subgroup_masks,
    enumerate_subgroups,
    is_characteristic,
    minimal_cover,
    verbal_residual,
)
from .toposystems import (
    BadParameterError,
    TopoSystem,
    build_toposys,
    closure_and_limits,
    find_finite_subcover,
    generate_toposys,
    interior_boundary,
    is_hausdorff,
    quotient_toposys,
    star_topology_checks,
    t_closed_checks,
    verify_toposys,
)
from .filters import (
    IdentityNotAllowedError,
    NoFipError,
    NotAFilterError,
    SubgroupFilter,
    TrivialGroupError,
    convergence_set,
    enumerate_ultrafilters,
    extend_to_ultrafilter,
    filter_from_members,
    generate_filter,
    is_ultrafilter,
    principal_filter,
    pushforward,
    theorem_checks,
)
from .products import (
    CertificateFailureError,
    ProductGroup,
    ProductToposys,
    direct_product,
    product_identities_check,
    product_toposys,
    tychonoff_certificate,
)
from .suites import DEFAULT_CATALOG, SuiteConfig, run_suite

__version__ = "0.1.0"
