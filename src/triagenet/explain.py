"""Attention-based warning-symptom detection and validation.

Three pieces built on a trained attention model:

* feature scoring: for each n-gram seen in a class, average its
  per-case max-normalized attention weight over the cases that contain
  it. A feature that always wins its case's attention scores 1.0.
* drop experiments: re-evaluate a fixed model after deleting tokens
  from every test case, chosen by attention score, by class frequency,
  or at random. If the scored features carry real signal, the
  attention-guided deletion should hurt the most.
* heatmaps: render per-token attention weights as HTML or ANSI text.
"""

from __future__ import annotations

import html
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .corpus import LABELS, CaseRecord, Vocabulary, encode_corpus
from .model import AttentionRecord, ModelParams, predict_batch
from .training import Metrics, derive_seed, evaluate

DROP_KINDS = ("random", "frequency", "attention")


@dataclass(frozen=True)
class SymptomScore:
    """Attention-derived importance of one n-gram for one class.

    ``score`` is the mean over containing cases of the feature's
    attention weight divided by the case maximum, so it always lies in
    [0, 1] and hits 1.0 only for features that top every case they
    appear in. ``mean_attention`` and ``mean_case_max`` keep the raw
    ingredients around for auditing.
    """

    feature: str
    class_name: str
    score: float
    occurrences: int
    mean_attention: float
    mean_case_max: float

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "class": self.class_name,
            "score": self.score,
            "occurrences": self.occurrences,
            "mean_attention": self.mean_attention,
            "mean_case_max": self.mean_case_max,
        }


@dataclass(frozen=True)
class PairSynergy:
    """A scored bigram next to its members' unigram scores.

    ``margin`` is pair score minus the better member score; a positive
    margin marks a combination more alarming than either part alone.
    """

    first: str
    second: str
    first_score: float
    second_score: float
    pair_score: float
    margin: float


def _valid_positions(record: AttentionRecord, gram_size: int) -> np.ndarray:
    """Attention weights at windows made entirely of real tokens."""
    n_pos = record.n_tokens - gram_size + 1
    if n_pos < 1:
        return np.empty(0)
    return record.alphas[gram_size][:n_pos]


def score_features(
    params: ModelParams,
    records: list[CaseRecord],
    vocab: Vocabulary,
    class_name: str,
    gram_size: int = 1,
) -> list[SymptomScore]:
    """Rank every width-``gram_size`` feature of one class by attention.

    Only windows fully inside the real tokens count, both as features
    and in the per-case maximum; windows that straddle padding carry
    attention weight but no feature identity. A feature repeated inside
    one case contributes its best-attended occurrence. Features are
    keyed by their token strings, and a feature absent from the class
    is omitted rather than scored zero.

    Sorted by score descending, then occurrences descending, then
    feature name.
    """
    return score_grams(params, records, vocab, class_name, (gram_size,))[0]


def score_grams(
    params: ModelParams,
    records: list[CaseRecord],
    vocab: Vocabulary,
    class_name: str,
    gram_sizes: tuple[int, ...],
) -> list[list[SymptomScore]]:
    """``score_features`` for each of ``gram_sizes`` from one inference pass."""
    cfg = params.config
    if class_name not in LABELS:
        raise ConfigError(f"unknown class {class_name!r}")
    for gram_size in gram_sizes:
        if gram_size not in cfg.widths:
            raise ConfigError(f"model has no width-{gram_size} window")
    if cfg.arch != "acnn":
        raise ConfigError("feature scoring needs attention weights")

    records = [rec for rec in records if rec.label == class_name]
    preds = predict_batch(params, encode_corpus(records, vocab, cfg.max_len))
    return [_rank(records, preds, class_name, gram_size) for gram_size in gram_sizes]


def _rank(records, preds, class_name: str, gram_size: int) -> list[SymptomScore]:
    """One gram size's scores from the class's records and their predictions."""
    f_sum: dict[str, float] = defaultdict(float)
    att_sum: dict[str, float] = defaultdict(float)
    max_sum: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for rec, pred in zip(records, preds):
        weights = _valid_positions(pred.attention, gram_size)
        if weights.size == 0:
            continue
        case_max = float(weights.max())  # softmax output, so > 0
        best: dict[str, float] = {}
        for t, w in enumerate(weights):
            feat = " ".join(rec.tokens[t : t + gram_size])
            if feat not in best or w > best[feat]:
                best[feat] = float(w)
        for feat, w in best.items():
            count[feat] += 1
            f_sum[feat] += w / case_max
            att_sum[feat] += w
            max_sum[feat] += case_max

    scores = [
        SymptomScore(
            feature=feat,
            class_name=class_name,
            score=f_sum[feat] / n,
            occurrences=n,
            mean_attention=att_sum[feat] / n,
            mean_case_max=max_sum[feat] / n,
        )
        for feat, n in count.items()
    ]
    scores.sort(key=lambda s: (-s.score, -s.occurrences, s.feature))
    return scores


def pair_synergy(
    unigram_scores: list[SymptomScore], bigram_scores: list[SymptomScore]
) -> list[PairSynergy]:
    """Compare each scored bigram against its members' unigram scores.

    Both lists must come from the same class and data; every bigram
    member then has a unigram score, because it occurred in the same
    cases. Returns all pairs sorted by margin descending.
    """
    if not bigram_scores:
        return []
    classes = {s.class_name for s in unigram_scores} | {s.class_name for s in bigram_scores}
    if len(classes) != 1:
        raise ConfigError(f"score lists span classes {sorted(classes)}")
    by_token = {s.feature: s.score for s in unigram_scores}
    pairs = []
    for s in bigram_scores:
        first, second = s.feature.split(" ", 1)
        if first not in by_token or second not in by_token:
            raise ConfigError(f"no unigram score for a member of {s.feature!r}")
        a, b = by_token[first], by_token[second]
        pairs.append(
            PairSynergy(
                first=first,
                second=second,
                first_score=a,
                second_score=b,
                pair_score=s.score,
                margin=s.score - max(a, b),
            )
        )
    pairs.sort(key=lambda p: (-p.margin, p.first, p.second))
    return pairs


# -- drop experiments ---------------------------------------------------------


@dataclass(frozen=True)
class DropStrategy:
    """How to delete tokens from each case before re-evaluating."""

    kind: str
    drops: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in DROP_KINDS:
            raise ConfigError(f"kind must be one of {DROP_KINDS}, got {self.kind!r}")
        if self.drops < 1:
            raise ConfigError("drops must be >= 1")


def _drop_positions(tokens: list[str], strategy: DropStrategy, ranking, rng) -> list[int]:
    n_drop = min(strategy.drops, len(tokens) - 1)
    if n_drop <= 0:
        return []
    if strategy.kind == "random":
        return sorted(int(i) for i in rng.choice(len(tokens), size=n_drop, replace=False))
    # highest-ranked tokens present in the case; unranked sort below all ranked
    order = sorted(
        range(len(tokens)),
        key=lambda i: (-ranking.get(tokens[i], float("-inf")), i),
    )
    return sorted(order[:n_drop])


def drop_dataset(
    records: list[CaseRecord],
    strategy: DropStrategy,
    ranking: dict[str, float] | None = None,
) -> list[CaseRecord]:
    """Delete ``strategy.drops`` tokens from every record.

    ``ranking`` maps token to attention score (kind "attention") or to
    class frequency (kind "frequency"); random drops ignore it. Every
    case loses exactly min(drops, len - 1) tokens, so no case ends up
    empty, and the corpus size never changes. Planted-flag indices are
    remapped to the surviving positions.
    """
    strategy.validate()
    if strategy.kind != "random" and ranking is None:
        raise ConfigError(f"{strategy.kind} drop needs a ranking table")
    rng = np.random.default_rng(derive_seed(strategy.seed, "drop-random"))
    out = []
    for rec in records:
        drop = set(_drop_positions(rec.tokens, strategy, ranking, rng))
        if not drop:
            out.append(rec)
            continue
        keep = [i for i in range(len(rec.tokens)) if i not in drop]
        new_index = {old: new for new, old in enumerate(keep)}
        out.append(
            CaseRecord(
                tokens=[rec.tokens[i] for i in keep],
                label=rec.label,
                age=rec.age,
                gender=rec.gender,
                planted_flags=[new_index[i] for i in rec.planted_flags if i in new_index],
            )
        )
    return out


@dataclass(frozen=True)
class DropRow:
    """One evaluated condition of a drop experiment."""

    label: str
    kind: str
    drops: int
    metrics: Metrics


def drop_experiment(
    params: ModelParams,
    train_records: list[CaseRecord],
    test_records: list[CaseRecord],
    vocab: Vocabulary,
    max_drops: int = 1,
    class_name: str = "urgent_care",
    seed: int = 0,
) -> list[DropRow]:
    """Evaluate one model on the test set under every drop condition.

    Produces a baseline row plus {random, frequency, attention} rows for
    each drop count 1..max_drops. Both ranking tables come from the
    ``class_name`` cases of the training split, never from test data:
    frequency counts token occurrences there, attention uses unigram
    scores from the same split. The rows report metrics only; deciding
    what the ordering means is the caller's job.
    """
    if max_drops < 1:
        raise ConfigError("max_drops must be >= 1")
    max_len = params.config.max_len

    freq_rank: dict[str, float] = defaultdict(float)
    for rec in train_records:
        if rec.label == class_name:
            for tok in rec.tokens:
                freq_rank[tok] += 1.0
    att_rank = {
        s.feature: s.score
        for s in score_features(params, train_records, vocab, class_name, gram_size=1)
    }

    rows = [
        DropRow(
            label="Baseline",
            kind="baseline",
            drops=0,
            metrics=evaluate(params, encode_corpus(test_records, vocab, max_len)),
        )
    ]
    for d in range(1, max_drops + 1):
        for kind, ranking in (
            ("random", None),
            ("frequency", dict(freq_rank)),
            ("attention", att_rank),
        ):
            strategy = DropStrategy(kind=kind, drops=d, seed=derive_seed(seed, f"drop-{d}"))
            dropped = drop_dataset(test_records, strategy, ranking)
            word = kind.capitalize()
            label = f"{word} Drop" if d == 1 else f"{d} {word} Drops"
            metrics = evaluate(params, encode_corpus(dropped, vocab, max_len))
            rows.append(DropRow(label=label, kind=kind, drops=d, metrics=metrics))
    return rows


# -- rendering ----------------------------------------------------------------


def render_score_table(scores: list[SymptomScore], top: int | None = None) -> str:
    """Plain-text ranking: feature, score, occurrence count."""
    rows = scores if top is None else scores[:top]
    width = max([len("feature"), *(len(s.feature) for s in rows)]) if rows else len("feature")
    lines = [f"{'feature':<{width}}   score  occurrences"]
    for s in rows:
        lines.append(f"{s.feature:<{width}}  {s.score:6.4f}  {s.occurrences:11d}")
    return "\n".join(lines)


def render_pair_table(pairs: list[PairSynergy], top: int | None = None) -> str:
    """Plain-text pair ranking with member scores and synergy margin."""
    rows = pairs if top is None else pairs[:top]
    width = max([len("pair"), *(len(f"{p.first} {p.second}") for p in rows)]) if rows else 4
    lines = [f"{'pair':<{width}}   first  second    pair  margin"]
    for p in rows:
        name = f"{p.first} {p.second}"
        lines.append(
            f"{name:<{width}}  {p.first_score:6.4f}  {p.second_score:6.4f}"
            f"  {p.pair_score:6.4f}  {p.margin:+.4f}"
        )
    return "\n".join(lines)


def _heat_intensities(tokens: list[str], record: AttentionRecord) -> np.ndarray:
    if 1 not in record.alphas:
        raise ConfigError("heatmaps need width-1 attention weights")
    weights = record.alphas[1][: record.n_tokens]
    if len(tokens) != len(weights):
        raise ConfigError(f"{len(tokens)} tokens but {len(weights)} attention weights")
    return weights / weights.max()


def render_heatmap(tokens: list[str], record: AttentionRecord, fmt: str = "html") -> str:
    """One document's tokens shaded by rescaled width-1 attention.

    Weights are divided by the document maximum, so the most-attended
    token always renders at full intensity and shading is comparable
    within a document, not across documents. Padding positions carry no
    tokens and are not rendered.
    """
    intensities = _heat_intensities(tokens, record)
    if fmt == "html":
        spans = [
            f'<span style="background-color: rgba(196, 48, 24, {i:.3f})">{html.escape(t)}</span>'
            for t, i in zip(tokens, intensities)
        ]
        return '<div class="heatmap">' + " ".join(spans) + "</div>"
    if fmt == "ansi":
        cells = []
        for t, i in zip(tokens, intensities):
            # white at zero shading to a deep red at full attention
            g = int(round(255 - 190 * i))
            b = int(round(255 - 220 * i))
            cells.append(f"\x1b[48;2;255;{g};{b}m\x1b[30m{t}\x1b[0m")
        return " ".join(cells)
    raise ConfigError(f"unknown heatmap format {fmt!r}")
