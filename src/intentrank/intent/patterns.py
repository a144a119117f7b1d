"""Query patterns: templates of literals, entity slots, and dictionary slots.

A pattern source string like

    <movie:entity> <trailers:dictionary>

is whitespace-tokenized; `<name:entity>` becomes an entity slot typed by its
name, `<name:dictionary>` a dictionary slot, and any other token a literal
word. A pattern matches a query only if it consumes every query token in
order. Slots prefer the longest span they can take; when that choice blocks
the rest of the pattern the matcher backs off to the next shorter span, so a
match is found whenever any full-cover assignment exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from ..errors import ConfigurationError, PatternSyntaxError


@dataclass(frozen=True)
class Literal:
    word: str


@dataclass(frozen=True)
class EntitySlot:
    name: str
    entity_type: str


@dataclass(frozen=True)
class DictSlot:
    name: str
    dictionary_id: str


PatternToken = Union[Literal, EntitySlot, DictSlot]


@dataclass(frozen=True)
class Dictionary:
    """Plain phrase list; phrases are lowercase token sequences."""

    dictionary_id: str
    phrases: frozenset  # of tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.phrases:
            raise ConfigurationError(f"dictionary {self.dictionary_id!r} has no phrases")
        for phrase in self.phrases:
            if not phrase or any(tok != tok.lower() for tok in phrase):
                raise ConfigurationError(
                    f"dictionary {self.dictionary_id!r}: phrases must be nonempty lowercase, "
                    f"got {phrase!r}"
                )


@dataclass(frozen=True)
class EntityRecord:
    """Knowledge-base entry: typed entity with aliases and context terms."""

    entity_id: str
    entity_type: str
    aliases: frozenset  # of tuple[str, ...]
    description_terms: frozenset = frozenset()
    popularity: float = 0.5

    def __post_init__(self) -> None:
        if not self.aliases:
            raise ConfigurationError(f"entity {self.entity_id!r} has no aliases")
        if not 0.0 <= self.popularity <= 1.0:
            raise ConfigurationError(
                f"entity {self.entity_id!r}: popularity {self.popularity} outside [0,1]"
            )


@dataclass(frozen=True)
class SpecialGrammar:
    """Structured reading of a grammar pattern: what type, whose history, when."""

    doc_type: str
    self_seen: bool = False
    window: Optional[str] = None  # None, "yesterday", or "past_week"


@dataclass(frozen=True)
class QueryPattern:
    pattern_id: str
    tokens: tuple[PatternToken, ...]
    target_intent: str
    base_confidence: float = 0.8
    grammar: Optional[SpecialGrammar] = None

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ConfigurationError(f"pattern {self.pattern_id!r} has no tokens")
        if not 0.0 <= self.base_confidence <= 1.0:
            raise ConfigurationError(
                f"pattern {self.pattern_id!r}: base_confidence outside [0,1]"
            )
        names = [t.name for t in self.tokens if not isinstance(t, Literal)]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"pattern {self.pattern_id!r}: duplicate slot names")


@dataclass(frozen=True)
class PatternMatch:
    """A full-query match: every slot captured, every token consumed."""

    pattern_id: str
    captures: Mapping[str, str]  # slot name -> entity_id or matched phrase
    entity_captures: Mapping[str, tuple[str, int, int]]  # slot -> (entity_id, start, end)
    confidence: float


def parse_pattern_tokens(source: str) -> tuple[PatternToken, ...]:
    """Parse a pattern source string; column numbers point at bad slots."""
    # Braces act as separators, which also strips the optional surrounding {}.
    raws: list[tuple[str, int]] = []
    i = 0
    while i < len(source):
        if source[i].isspace() or source[i] in "{}":
            i += 1
            continue
        j = i
        while j < len(source) and not source[j].isspace() and source[j] not in "{}":
            j += 1
        raws.append((source[i:j], i + 1))
        i = j

    tokens: list[PatternToken] = []
    for raw, column in raws:
        if raw.startswith("<") or raw.endswith(">"):
            if not (raw.startswith("<") and raw.endswith(">")):
                raise PatternSyntaxError(source, column, f"unbalanced slot brackets in {raw!r}")
            inner = raw[1:-1]
            if ":" not in inner:
                raise PatternSyntaxError(source, column, f"slot {raw!r} is missing ':'")
            name, kind = inner.split(":", 1)
            if not name:
                raise PatternSyntaxError(source, column, f"slot {raw!r} has an empty name")
            if kind == "entity":
                tokens.append(EntitySlot(name=name, entity_type=name))
            elif kind == "dictionary":
                tokens.append(DictSlot(name=name, dictionary_id=name))
            else:
                raise PatternSyntaxError(
                    source, column,
                    f"unknown slot kind {kind!r} (expected 'entity' or 'dictionary')",
                )
        else:
            tokens.append(Literal(raw.lower()))
    if not tokens:
        raise PatternSyntaxError(source, 1, "pattern has no tokens")
    return tuple(tokens)


def parse_pattern(
    source: str,
    pattern_id: str,
    target_intent: str,
    base_confidence: float = 0.8,
    grammar: Optional[SpecialGrammar] = None,
) -> QueryPattern:
    return QueryPattern(
        pattern_id=pattern_id,
        tokens=parse_pattern_tokens(source),
        target_intent=target_intent,
        base_confidence=base_confidence,
        grammar=grammar,
    )


class KnowledgeBase:
    """Entity records indexed by alias for token-aligned lookup."""

    def __init__(self, entities: Sequence[EntityRecord]):
        self.entities = {e.entity_id: e for e in entities}
        if len(self.entities) != len(entities):
            raise ConfigurationError("duplicate entity_id in knowledge base")
        # alias first token -> [(alias, entity)] for cheap prefix candidate scan
        self._by_first: dict[str, list[tuple[tuple[str, ...], EntityRecord]]] = {}
        for entity in entities:
            for alias in entity.aliases:
                self._by_first.setdefault(alias[0], []).append((alias, entity))

    def __len__(self) -> int:
        return len(self.entities)

    def get(self, entity_id: str) -> Optional[EntityRecord]:
        return self.entities.get(entity_id)

    def alias_matches_at(
        self, tokens: Sequence[str], start: int, entity_type: Optional[str] = None
    ) -> list[tuple[int, EntityRecord]]:
        """(span length, entity) pairs whose alias equals tokens[start:start+len]."""
        out = []
        if start >= len(tokens):
            return out
        for alias, entity in self._by_first.get(tokens[start], ()):
            if entity_type is not None and entity.entity_type != entity_type:
                continue
            end = start + len(alias)
            if end <= len(tokens) and tuple(tokens[start:end]) == alias:
                out.append((len(alias), entity))
        return out


def _slot_choices(
    token: PatternToken,
    query: Sequence[str],
    pos: int,
    kb: KnowledgeBase,
    dictionaries: Mapping[str, Dictionary],
) -> list[tuple[int, Optional[str], Optional[str]]]:
    """Choices for one pattern token at `pos`: (span_len, entity_id, phrase).

    Ordered longest span first; equal-length entity candidates are ordered
    by popularity (descending) then entity_id so ambiguity resolves the
    same way every run.
    """
    if isinstance(token, Literal):
        if pos < len(query) and query[pos] == token.word:
            return [(1, None, token.word)]
        return []
    if isinstance(token, EntitySlot):
        found = kb.alias_matches_at(query, pos, token.entity_type)
        found.sort(key=lambda le: (-le[0], -le[1].popularity, le[1].entity_id))
        return [(length, entity.entity_id, None) for length, entity in found]
    dictionary = dictionaries[token.dictionary_id]
    hits = []
    for phrase in dictionary.phrases:
        end = pos + len(phrase)
        if end <= len(query) and tuple(query[pos:end]) == phrase:
            hits.append((len(phrase), None, " ".join(phrase)))
    hits.sort(key=lambda h: (-h[0], h[2]))
    return hits


def match_pattern(
    pattern: QueryPattern,
    query_tokens: Sequence[str],
    kb: KnowledgeBase,
    dictionaries: Mapping[str, Dictionary],
) -> Optional[PatternMatch]:
    """Match the whole query against the pattern, or return None.

    The returned confidence is the pattern's base confidence; detection
    discounts it by the link quality of any captured entities.
    """
    for token in pattern.tokens:
        if isinstance(token, DictSlot) and token.dictionary_id not in dictionaries:
            raise ConfigurationError(
                f"pattern {pattern.pattern_id!r} references unknown dictionary "
                f"{token.dictionary_id!r}"
            )

    captures: dict[str, str] = {}
    entity_captures: dict[str, tuple[str, int, int]] = {}

    def backtrack(token_idx: int, pos: int) -> bool:
        if token_idx == len(pattern.tokens):
            return pos == len(query_tokens)
        token = pattern.tokens[token_idx]
        for length, entity_id, phrase in _slot_choices(token, query_tokens, pos, kb, dictionaries):
            if isinstance(token, EntitySlot):
                captures[token.name] = entity_id or ""
                entity_captures[token.name] = (entity_id or "", pos, pos + length)
            elif isinstance(token, DictSlot):
                captures[token.name] = phrase or ""
            if backtrack(token_idx + 1, pos + length):
                return True
            if not isinstance(token, Literal):
                captures.pop(token.name, None)
                entity_captures.pop(token.name, None)
        return False

    if not backtrack(0, 0):
        return None
    return PatternMatch(
        pattern_id=pattern.pattern_id,
        captures=dict(captures),
        entity_captures=dict(entity_captures),
        confidence=pattern.base_confidence,
    )
