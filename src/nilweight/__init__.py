"""nilweight: counting nilpotent weights and partial characters of finite groups.

The package builds permutation groups from generators with a certified
stabilizer chain, computes exact character tables and sigma-partial
characters with vertices, enumerates nilpotent weights and Carter
subgroups, and checks the resulting counting identities on a builtin
corpus of small groups.
"""

from .perms import Perm, MalformedPermError
from .sigma import PrimeSet, sigma_part
from .groups import (
    ConjugacyClass,
    PermGroup,
    ResourceLimitError,
    Subgroup,
    bsgs_construct,
)
from .lattice import (
    SubgroupClass,
    carter_fiber,
    carter_subgroups,
    is_carter_in,
    nilpotent_sigma_subgroup_classes,
    solvable_sigma_subgroup_classes,
    subgroup_class_of,
    subgroup_classes,
)
from .cyclotomic import Cyclotomic
from .chartab import (
    Character,
    CharacterTable,
    character_stabilizer,
    character_table,
    conjugate_character,
    decompose_into_irreducibles,
    has_sigma_defect_zero,
    induce_character,
    inner_product,
    restrict_character,
)
from .pipartial import (
    GlaubermanAction,
    InternalConsistencyError,
    Weight,
    clifford_correspondent,
    decompose_on_subgroup,
    enumerate_weights,
    glauberman_correspondent,
    glauberman_map,
    ipi_with_vertex,
    lies_over,
    partial_character_stabilizer,
    sigma_partial_characters,
    vertices,
    weights_with_first_component,
)
from .verify import (
    ReportRow,
    VerificationReport,
    bijection_setup,
    check_canonical_bijection,
    check_carter_refinement,
    check_normalizer_counting,
    check_weight_count,
    scan_corpus,
    sigma_subsets,
)
from .properties import PropertyOutcome, PropertyReport, run_property_suite
from .corpus import (
    GroupDefinition,
    GroupFileError,
    SKIPPED_ENTRIES,
    builtin_by_name,
    builtin_corpus,
    parse_group_file,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
