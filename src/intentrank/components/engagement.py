"""Trainable engagement component: logistic model over shared signals.

Labels come from the query log (good-clicked among shown documents). The
model is deliberately small: a linear layer plus sigmoid over named
features, trained by full-batch gradient descent on L2-regularized
log-loss, deterministic for fixed inputs.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from ..corpus import Document, QueryContext, QueryRecord
from ..errors import ConfigurationError, IntentRankError
from ..records import Field, Table, list_of, number, read_config, string
from .generic import (
    DEFAULT_LOCATION_TAU_KM,
    DEFAULT_RELATION_WEIGHTS,
    Scorer,
    location_decay,
    location_sigma,
    social_relevance_value,
    social_sigma,
    squash,
)
from .signals import SharedSignals

if TYPE_CHECKING:
    from ..frame import CandidateFrame

log = logging.getLogger(__name__)

INTENT_FEATURE_PREFIX = "intent:"


@dataclass(frozen=True)
class Feature:
    """One engagement feature, read from one candidate's signals (`extract`)
    or from every row of a frame (`column`); both give the same bits."""

    extract: Callable[[SharedSignals], float]
    column: Callable[["CandidateFrame"], np.ndarray]


def _ratio_or_zero(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros(len(num)), where=den != 0)


#: name -> feature; every value already lives in [0,1].
FEATURES: dict[str, Feature] = {
    "bm25_squashed": Feature(lambda s: squash(s.first_pass_bm25), lambda f: squash(f.first_pass)),
    "proximity": Feature(lambda s: s.proximity, lambda f: f.proximity),
    "title_hit_ratio": Feature(lambda s: s.title_hit_ratio, lambda f: f.title_hit_ratio),
    "social": Feature(lambda s: social_relevance_value(s.relations, DEFAULT_RELATION_WEIGHTS),
                      lambda f: social_sigma(f, DEFAULT_RELATION_WEIGHTS)),
    "location": Feature(lambda s: location_decay(s.distance_km, DEFAULT_LOCATION_TAU_KM),
                        lambda f: location_sigma(f, DEFAULT_LOCATION_TAU_KM)),
    "language": Feature(lambda s: s.language_overlap, lambda f: f.language_overlap),
    "quality": Feature(lambda s: s.quality_mean, lambda f: f.quality),
    "ctr_qd": Feature(lambda s: s.ctr_qd(),
                      lambda f: _ratio_or_zero(f.pair_clicks, f.pair_impressions)),
    "good_ctr_qd": Feature(lambda s: s.good_ctr_qd(),
                           lambda f: f.pair_good_clicks / (f.pair_clicks + 1)),
    "doc_good_ctr": Feature(lambda s: s.doc_good_ctr(),
                            lambda f: f.doc_good_clicks / (f.doc_clicks + 1)),
}

DEFAULT_FEATURES = (
    "bm25_squashed", "title_hit_ratio", "social", "language",
    "quality", "ctr_qd", "good_ctr_qd",
)

ZERO_FEATURE = Feature(lambda s: 0.0, lambda f: np.zeros(len(f)))


def _intent_feature(intent_id: str) -> Feature:
    return Feature(lambda s: s.intents.get(intent_id) if s.intents is not None else 0.0,
                   lambda f: np.full(len(f), f.detection.distribution.get(intent_id)))


def resolve_features(names: Sequence[str]) -> tuple[Feature, ...]:
    """One feature per name, in order; an unknown name reads as 0, with one
    warning per distinct name."""
    features = []
    unknown: set[str] = set()
    for name in names:
        feature = FEATURES.get(name)
        if feature is None and name.startswith(INTENT_FEATURE_PREFIX):
            feature = _intent_feature(name[len(INTENT_FEATURE_PREFIX):])
        if feature is None:
            if name not in unknown:
                log.warning("unknown engagement feature %r treated as 0", name)
                unknown.add(name)
            feature = ZERO_FEATURE
        features.append(feature)
    return tuple(features)


def feature_vector(features: Sequence[Feature], signals: SharedSignals) -> np.ndarray:
    """The resolved features of one candidate, in declared order."""
    return np.array([feature.extract(signals) for feature in features], dtype=np.float64)


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    # exp(-logaddexp(0, -z)) never overflows, unlike 1 / (1 + exp(-z))
    return np.exp(-np.logaddexp(0.0, -np.asarray(z, dtype=np.float64)))


@dataclass(frozen=True)
class EngagementModel:
    features: tuple[str, ...]
    weights: tuple[float, ...]
    bias: float = 0.0

    def __post_init__(self) -> None:
        if len(self.features) != len(self.weights):
            raise ConfigurationError(
                f"engagement model has {len(self.features)} features but "
                f"{len(self.weights)} weights"
            )

    def predict(self, x: np.ndarray) -> float:
        z = float(np.dot(np.asarray(self.weights), x) + self.bias)
        return float(sigmoid(z))

    def predict_rows(self, x: np.ndarray) -> np.ndarray:
        """`predict` of every row of a C-contiguous matrix, bit for bit.

        One dot per row: a matrix product or a column sum may add the terms
        in another order. The sigmoid is elementwise, so one call serves all.
        """
        weights = np.asarray(self.weights)
        return sigmoid(np.array([float(np.dot(weights, row) + self.bias) for row in x],
                                dtype=np.float64))

    @classmethod
    def zeros(cls, features: Sequence[str]) -> "EngagementModel":
        return cls(features=tuple(features), weights=tuple(0.0 for _ in features), bias=0.0)


def save_model(model: EngagementModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(MODEL.encode(model), sort_keys=True) + "\n", encoding="utf-8")


MODEL = Table(
    EngagementModel,
    Field("features", list_of(string)), Field("weights", list_of(number)), Field("bias", number, 0.0),
)


def load_model(path: str | Path) -> EngagementModel:
    return read_config(path, MODEL)


class EngagementScorer(Scorer):
    """Logistic engagement probability as a ranking component.

    The model's feature names are resolved once, here. Scoring reads no
    mutable state, so one scorer is safe to share across threads.
    """

    def __init__(self, component_id: str = "engagement", model: Optional[EngagementModel] = None):
        super().__init__(component_id)
        self.model = model if model is not None else EngagementModel.zeros(DEFAULT_FEATURES)
        self._features = resolve_features(self.model.features)

    def score(self, ctx: QueryContext, doc: Document, signals: SharedSignals) -> float:
        return self.model.predict(feature_vector(self._features, signals))

    def column(self, ctx: QueryContext, frame: "CandidateFrame") -> np.ndarray:
        kept = frame.kept
        x = np.empty((len(kept), len(self._features)))  # C order: rows are contiguous
        for j, feature in enumerate(self._features):
            x[:, j] = feature.column(frame)[kept]
        out = np.zeros(len(frame))
        out[kept] = self.model.predict_rows(x)
        return out


def loss_and_gradient(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray, bias: float, l2: float = 0.0
) -> tuple[float, np.ndarray, float]:
    """Mean log-loss with L2 on weights, plus analytic gradients.

    Uses logaddexp for the loss so large |z| cannot overflow.
    """
    z = x @ weights + bias
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(np.dot(weights, weights))
    residual = sigmoid(z) - y
    grad_w = x.T @ residual / len(y) + l2 * weights
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


@dataclass(frozen=True)
class TrainParams:
    learning_rate: float = 1.0
    iterations: int = 500
    l2: float = 1e-4


@dataclass
class TrainReport:
    final_loss: float
    train_auc: float
    n_examples: int
    n_positive: int
    loss_curve: list = field(default_factory=list)


def auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based AUC with average ranks for ties."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise IntentRankError("AUC undefined with a single class")
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def build_training_matrix(
    log_records: Iterable[QueryRecord],
    signals_for: Callable[[QueryRecord, str], Optional[SharedSignals]],
    feature_names: Sequence[str],
) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) over every shown document; label is good-clicked membership."""
    features = resolve_features(feature_names)
    rows = []
    labels = []
    for rec in log_records:
        for doc_id in rec.shown_doc_ids:
            signals = signals_for(rec, doc_id)
            if signals is None:
                continue
            rows.append(feature_vector(features, signals))
            labels.append(1.0 if doc_id in rec.good_clicked else 0.0)
    if not rows:
        raise IntentRankError("query log produced no training examples")
    return np.asarray(rows), np.asarray(labels)


def train_engagement(
    log_records: Sequence[QueryRecord],
    signals_for: Callable[[QueryRecord, str], Optional[SharedSignals]],
    feature_names: Sequence[str] = DEFAULT_FEATURES,
    params: TrainParams = TrainParams(),
) -> tuple[EngagementModel, TrainReport]:
    """Full-batch gradient descent on log-loss; deterministic for fixed inputs."""
    if not log_records:
        raise IntentRankError("query log is empty; nothing to train on")
    x, y = build_training_matrix(log_records, signals_for, feature_names)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == len(y):
        raise IntentRankError(
            "training labels are all one class; add query records with both "
            "good-clicked and skipped documents"
        )

    # Zero init keeps the run reproducible; the loss is convex so nothing
    # is lost.
    weights = np.zeros(len(feature_names))
    bias = 0.0
    curve = []
    for _ in range(params.iterations):
        loss, grad_w, grad_b = loss_and_gradient(x, y, weights, bias, params.l2)
        curve.append(loss)
        weights = weights - params.learning_rate * grad_w
        bias = bias - params.learning_rate * grad_b
    final_loss, _, _ = loss_and_gradient(x, y, weights, bias, params.l2)
    scores = sigmoid(x @ weights + bias)
    report = TrainReport(
        final_loss=final_loss,
        train_auc=auc_score(y, np.asarray(scores)),
        n_examples=len(y),
        n_positive=n_pos,
        loss_curve=curve,
    )
    model = EngagementModel(
        features=tuple(feature_names),
        weights=tuple(float(w) for w in weights),
        bias=float(bias),
    )
    return model, report
