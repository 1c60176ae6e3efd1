"""Two-database random symmetric PIR: schemes, exact verification, simulation.

The user holds no input and receives one uniformly random message out of K,
with neither database learning which one (user privacy) and the user
learning nothing beyond it (database privacy). Everything here is exact:
schemes are linear maps over GF(2^m), and every constraint is decided by
integer ranks and counts, with rational arithmetic where entropies appear.
"""
from .decode import (
    DatabasePrivacyBreach,
    DecodeTable,
    NotReliableError,
    PairDecode,
    decode,
    derive_decode_table,
)
from .field import GF2, FieldSpec
from .graphdot import export_bipartite_dot
from .infotheory import JointDistribution, entropy, is_independent, mutual_information
from .linalg import FieldMatrix, LinearSolution, mat_mul, mat_vec, nullspace, rank, row_reduce, solve_linear, vstack
from .protocol import Transcript, parse_messages, random_messages, run_protocol, shared_randomness
from .scheme import (
    LinearAnswer,
    Scheme,
    VARIANTS,
    answer_index_bits,
    build_k4_scheme,
    build_pairwise_scheme,
    build_rotation_scheme,
    build_scheme,
    permute_answers,
    permute_randomness,
    row_from_expr,
    validate_shape,
    with_field,
)
from .schemeio import SchemeParseError, load_scheme, parse_scheme, save_scheme, serialize_scheme
from .search import BudgetExceededError, SearchResult, SearchSpace, search_schemes
from .verify import (
    CheckRecord,
    RandomnessAudit,
    RateAudit,
    VerificationReport,
    audit_randomness,
    audit_rate,
    check_database_privacy,
    check_determinism_and_independence,
    check_reliability,
    check_user_privacy,
    verify_scheme,
)

__all__ = [
    "GF2",
    "FieldSpec",
    "FieldMatrix",
    "LinearSolution",
    "mat_mul",
    "mat_vec",
    "nullspace",
    "rank",
    "row_reduce",
    "solve_linear",
    "vstack",
    "Scheme",
    "LinearAnswer",
    "VARIANTS",
    "answer_index_bits",
    "build_k4_scheme",
    "build_pairwise_scheme",
    "build_rotation_scheme",
    "build_scheme",
    "permute_answers",
    "permute_randomness",
    "row_from_expr",
    "validate_shape",
    "with_field",
    "SchemeParseError",
    "load_scheme",
    "parse_scheme",
    "save_scheme",
    "serialize_scheme",
    "DecodeTable",
    "PairDecode",
    "NotReliableError",
    "DatabasePrivacyBreach",
    "decode",
    "derive_decode_table",
    "JointDistribution",
    "entropy",
    "mutual_information",
    "is_independent",
    "CheckRecord",
    "RateAudit",
    "RandomnessAudit",
    "VerificationReport",
    "audit_rate",
    "audit_randomness",
    "check_reliability",
    "check_database_privacy",
    "check_user_privacy",
    "check_determinism_and_independence",
    "verify_scheme",
    "Transcript",
    "run_protocol",
    "random_messages",
    "parse_messages",
    "shared_randomness",
    "export_bipartite_dot",
    "SearchSpace",
    "SearchResult",
    "BudgetExceededError",
    "search_schemes",
]

__version__ = "0.1.0"
