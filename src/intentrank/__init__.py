"""intentrank: a desk-scale search ranking engine.

Final relevance mixes generic scoring components with intent-specific ones
gated by a per-query intent distribution. The package covers the whole
loop: corpus ingestion, sharded retrieval, intent detection, score
combination with full traces, declarative expectation tests, offline
metrics, A/B comparison, and heuristic weight tuning.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    Document,
    EngagementCounters,
    EngagementTable,
    QualitySignals,
    QueryContext,
    QueryRecord,
    RelevanceJudgment,
    SocialGraph,
    StructuredSuggestion,
    UserContext,
    load_corpus,
    load_judgments,
    load_query_log,
    save_corpus,
    social_relations,
)
from .index import Candidate, ShardedIndex, build_index, first_pass_score, retrieve, tokenize
from .intent import (
    IntentConfig,
    IntentDistribution,
    IntentSpace,
    detect,
    normalize_evidence,
)
from .ranker import (
    RankedList,
    RankerConfig,
    ScoreTable,
    ScoreTrace,
    build_table,
    combine,
    explain,
    rank,
    trigger_stats,
)
from .engine import EngineHandle, SearchResult, load_engine
from .evaluation import (
    BVTCase,
    BVTReport,
    ab_compare,
    err_at_k,
    load_bvt_suite,
    mean_ndcg,
    ndcg_at_k,
    run_bvts,
    sgcr_replay,
)
from .tuning import GridSpec, TuneAssets, TuneSpec, objective, tune
from .errors import (
    ConfigurationError,
    IntentRankError,
    InvariantError,
    PatternSyntaxError,
    RecordParseError,
)
