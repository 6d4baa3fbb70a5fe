"""Data-discovery annotation over relational tables with a pluggable
chat-completion model: table classes, column types, and join keys."""

from .backend import (
    BackendExhausted,
    Conversation,
    GenerationParams,
    HttpBackend,
    HttpEndpoint,
    MatchFailed,
    MeteredBackend,
    PriceTable,
    ScriptedBackend,
    Usage,
    load_transcript,
)
from .core import (
    Ontology,
    OntologyFormat,
    OntologyTerm,
    SamplingMode,
    SamplingStrategy,
    Table,
    TermKind,
    edit_distance,
    label_similarity,
    load_ontology,
    lookup,
    nearest_term,
    normalize_label,
    read_csv,
    sample_rows,
    to_csv,
)
from .evaluate import (
    LabeledExample,
    Report,
    System,
    Task,
    WeightedMetrics,
    jaccard_join,
    levenshtein_join,
    load_manifest,
    per_class_stats,
    run_benchmark,
    weighted_metrics,
    write_report,
)
from .harness import (
    UNKNOWN,
    JoinPrediction,
    PipelineConfig,
    TaskFailed,
    TaskRun,
    Violation,
    ViolationKind,
    anchor,
    check_column_types,
    check_join,
    check_table_class,
    parse_column_types,
    parse_join_completion,
    parse_table_class,
    run_join_task_detailed,
    run_table_pipeline,
)
from .prompt import (
    PromptComponents,
    PromptConfig,
    assemble,
    column_type_prompt,
    join_prompt,
    table_class_prompt,
)

__version__ = "0.1.0"
