"""Finitely presented group workbench.

Words and generator maps, finite and stream-backed presentations with
certificate-producing triviality searches, a Britton-reduction solver for the
Baumslag-Solitar groups, budgeted isomorphism and subgroup-presentation
searches, certificate-checked Tietze moves, and the quotient-tower harness
built on all of it.
"""

from .words import (
    Alphabet,
    Generator,
    GeneratorMap,
    Word,
    WordParseError,
    commutator,
    concat,
    format_word,
    invert,
    parse_word,
    shortlex_stream,
    substitute,
)
from .presentations import (
    EMPTY_RELATOR_INDEX,
    CertFactor,
    Exhausted,
    FinitePresentation,
    IntMatrix,
    PresentationSyntaxError,
    ProvedTrivial,
    RecursivePresentation,
    TrivialityCertificate,
    abelianization_invariants,
    certificate_word,
    exponent_matrix,
    exponent_vector,
    is_perfect,
    parse_presentation,
    semidecide_trivial,
    smith_normal_form,
    trivial_word_stream,
    unique_words,
)
from .bs import (
    BS23,
    BSParams,
    ST,
    SyllableWord,
    apply_f,
    bs_equal,
    bs_is_trivial,
    bs_presentation,
    britton_reduce,
    britton_reduce_counted,
    doubling_map,
    f_preimage_witnesses,
    in_kernel,
    kernel_stream,
    w_family,
)
from .search import (
    Found,
    IsoWitness,
    LiftReport,
    Proved,
    SearchBudget,
    SubgroupFound,
    decide_homomorphism,
    hopfian_lift,
    iso_search,
    semidecide_homomorphism,
    subgroup_presentation_search,
    verify_iso_witness,
)
from .tietze import (
    AddGenerator,
    AddRelator,
    DefiningRelatorNotFound,
    GeneratorNameClash,
    IndexOutOfRange,
    Invalid,
    InvalidCertificate,
    MoveLog,
    RemoveGenerator,
    RemoveRelator,
    TietzeError,
    Unverifiable,
    Valid,
    apply_move,
    apply_sequence,
    check_move,
    move_to_json,
    parse_move,
    presentation_hash,
)
from .harness import (
    ExplicitFiniteSet,
    cantor_pair,
    cantor_tuple,
    cantor_unpair,
    cantor_untuple,
    compress_stream,
    quotient_tower_presentation,
    recover_cardinality,
    tower_oracle,
)

__version__ = "0.1.0"
