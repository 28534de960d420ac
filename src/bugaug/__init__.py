"""bugaug: data augmentation and balancing for bug-localization training sets."""

__version__ = "0.2.0"

from .balance import balance_dataset, distribution_report
from .builder import build_augmented_report, generate_augmented_set, generate_repeated_set
from .code_ops import levenshtein, top_k_substitutes
from .corpus import build_d_ori, split_by_date
from .diffs import derive_class_name, parse_unified_diff, serialize_hunks
from .extract import detect_code_tokens, reduce_stack_trace, strip_punctuation
from .metrics import (
    average_precision,
    mean_average_precision,
    mean_reciprocal_rank,
    precision_at_k,
)
from .nl_ops import (
    REJECTED,
    augment_paragraph,
    dictionary_insert,
    dictionary_replace,
    op_budget,
    random_delete,
    random_swap,
)
from .retrieval import index_hunks, rank

__all__ = [
    "__version__",
    "REJECTED",
    "augment_paragraph",
    "average_precision",
    "balance_dataset",
    "build_augmented_report",
    "build_d_ori",
    "derive_class_name",
    "detect_code_tokens",
    "dictionary_insert",
    "dictionary_replace",
    "distribution_report",
    "generate_augmented_set",
    "generate_repeated_set",
    "index_hunks",
    "levenshtein",
    "mean_average_precision",
    "mean_reciprocal_rank",
    "op_budget",
    "parse_unified_diff",
    "precision_at_k",
    "random_delete",
    "random_swap",
    "rank",
    "reduce_stack_trace",
    "serialize_hunks",
    "split_by_date",
    "strip_punctuation",
    "top_k_substitutes",
]
