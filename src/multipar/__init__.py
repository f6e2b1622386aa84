"""multipar: multi-parallel corpus construction and MT evaluation toolkit."""

__version__ = "0.1.0"

from .corpus import (
    MiningStats,
    MultiParallelCorpus,
    load_corpus,
    load_corpus_dir,
    mine_pivot_aligned,
    restrict_languages,
    save_corpus,
    subset_rows,
)
from .datagen import (
    BitextRecord,
    BucketAssignment,
    Direction,
    DirectionSet,
    FtDataset,
    TagStrategy,
    apply_tags,
    build_multidirectional_setting,
    build_multiparallel_setting,
    build_pairwise,
    emit_bitext,
    enumerate_directions,
    horizontal_expand,
    partition_buckets,
    restrict_directions_to_family,
    sample_directions,
    sample_rows,
)
from .langid import (
    LidConfig,
    LidModel,
    OffTargetReport,
    lid_classify,
    lid_train,
    off_target_rate,
    on_target_subset,
)
from .metrics import (
    CHRF,
    CHRF_PP,
    MetricConfig,
    ScorePair,
    bleu,
    chrf,
    tokenize_13a,
)
from .pool import available_cpus
from .probes import (
    Dictionary,
    ProbeConfig,
    build_word_pair_dataset,
    gen_number_pairs,
    match_token_budget,
    pivot_dictionaries,
)
from .registry import LanguageRegistry, LanguageSpec, ec30, ec40
from .report import (
    GroupingScheme,
    ScoreMatrix,
    aggregate,
    count_boosted,
    delta,
    emit_report,
    english_centric_summary,
    family_summary,
)
from .sampling import MixtureWeights, sample_schedule, temperature_weights
