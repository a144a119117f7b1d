"""Per-candidate precomputed features shared by all scoring components.

`EngineHandle.build_signals` builds one per (query, document) pair that gets
scored, never for a policy-rejected document. They are read-only afterward,
so scorers stay pure and cheap. Every field is read by a scorer or an
engagement feature. They are the retrieval-stage features (the title-hit
ratio comes from the index's positions, not from re-tokenizing the title),
the document's mean quality and click counts, and the detection captures the
intent-specific scorers need. The query time is `QueryContext.ts`, not a field here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..corpus import PairCounts
from ..intent.patterns import SpecialGrammar
from ..intent.space import IntentDistribution


@dataclass(frozen=True)
class SharedSignals:
    first_pass_bm25: float = 0.0
    proximity: float = 0.0
    title_hit_ratio: float = 0.0
    relations: frozenset = frozenset()
    distance_km: Optional[float] = None
    language_overlap: float = 0.0
    quality_mean: float = 0.0
    pair_counts: PairCounts = field(default_factory=PairCounts)
    doc_clicks: int = 0
    doc_good_clicks: int = 0
    intents: Optional[IntentDistribution] = None
    friend_target: Optional[str] = None
    publisher_entity: Optional[str] = None
    grammar: Optional[SpecialGrammar] = None

    def ctr_qd(self) -> float:
        if self.pair_counts.impressions == 0:
            return 0.0
        return self.pair_counts.clicks / self.pair_counts.impressions

    def good_ctr_qd(self) -> float:
        return self.pair_counts.good_clicks / (self.pair_counts.clicks + 1)

    def doc_good_ctr(self) -> float:
        return self.doc_good_clicks / (self.doc_clicks + 1)
