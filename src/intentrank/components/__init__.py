from .signals import SharedSignals
from .generic import (
    DEFAULT_LOCATION_TAU_KM,
    DEFAULT_RELATION_WEIGHTS,
    DEFAULT_TEXT_MIX,
    DocumentQualityScorer,
    LanguageMatchScorer,
    LocationRelevanceScorer,
    PassthroughScorer,
    Scorer,
    SocialRelevanceScorer,
    TextRelevanceScorer,
    haversine_km,
    language_match_value,
    location_decay,
    min_cover_window,
    proximity_score,
    social_relevance_value,
    squash,
    text_relevance_value,
)
from .intent_specific import (
    FriendIntentScorer,
    GrammarIntentScorer,
    VideoPublisherScorer,
    friend_intent_value,
    grammar_intent_value,
    video_publisher_value,
)
from .engagement import (
    DEFAULT_FEATURES,
    EngagementModel,
    EngagementScorer,
    TrainParams,
    TrainReport,
    auc_score,
    load_model,
    loss_and_gradient,
    resolve_features,
    save_model,
    sigmoid,
    train_engagement,
)
from .registry import KINDS, ComponentRegistry, ComponentSpec, build_registry
