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

Scoring and dropping read vocabulary ids from ``corpus.id_matrix``, as
the model does, so every token outside the vocabulary is one <unk> row;
heatmaps show a record's own tokens.
"""

from __future__ import annotations

import html
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .corpus import LABELS, PAD_ID, CaseRecord, Vocabulary, demographics_array, id_matrix
from .model import AttentionRecord, ModelParams, predict_attention, predict_probs
from .training import Metrics, derive_seed, metrics_from


@dataclass
class SymptomScore:
    """Attention-derived importance of one n-gram for one class.

    ``score`` is the mean over containing cases of the feature's
    attention weight divided by the case maximum, so it always lies in
    [0, 1] and hits 1.0 only for features that top every case they
    appear in. ``mean_attention`` and ``mean_case_max`` keep the raw
    ingredients around for auditing.

    Not frozen, so not hashable: a table holds thousands of rows, and a
    frozen dataclass takes about five times as long to build.
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


@dataclass
class PairSynergy:
    """A scored bigram next to its members' unigram scores.

    ``margin`` is pair score minus the better member score; a positive
    margin marks a combination more alarming than either part alone.
    Not frozen, like ``SymptomScore``.
    """

    first: str
    second: str
    first_score: float
    second_score: float
    pair_score: float
    margin: float


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
    named by the vocabulary's tokens, so every token outside it reads
    <unk>, and a feature absent from the class is omitted rather than
    scored zero.

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
    ids = id_matrix(records, vocab, cfg.max_len)
    _, attention, lengths = predict_attention(params, ids, demographics_array(records))
    return [_rank(ids, vocab.id_to_token, attention[m], lengths, class_name, m)
            for m in gram_sizes]


def _gram_keys(windows: np.ndarray, n_ids: int) -> np.ndarray:
    """One integer per row of ids, equal for equal rows: the ids in mixed radix
    ``n_ids``, renumbered first whenever a digit could overflow."""
    keys = windows[:, 0]
    for digit in windows.T[1:]:
        if keys.size and int(keys.max()) >= np.iinfo(np.int64).max // n_ids:
            keys = np.unique(keys, return_inverse=True)[1]
        keys = keys * n_ids + digit
    return keys


def _rank(ids: np.ndarray, tokens: list[str], alpha: np.ndarray, lengths: np.ndarray,
          class_name: str, gram_size: int) -> list[SymptomScore]:
    """One gram size's scores from the class's ids, named by ``tokens``, and attention.

    The sums run over each feature's cases in record order, one ``bincount``
    each, so they add the same floats in the same order as a per-case loop.
    """
    valid = np.arange(alpha.shape[1]) <= (lengths - gram_size)[:, None]
    case, start = valid.nonzero()
    weight = alpha[case, start]
    case_max = alpha.max(axis=1, where=valid, initial=0.0)[case]  # softmax output, so > 0
    windows = ids[case[:, None], start[:, None] + np.arange(gram_size)]
    firsts, feature = np.unique(_gram_keys(windows, len(tokens)), return_index=True,
                                return_inverse=True)[1:]
    # each (case, feature)'s best-attended occurrence: case, then feature, then weight descending
    pair = case * len(firsts) + feature
    order = np.lexsort((-weight, pair))
    best = order[np.diff(pair[order], prepend=-1) != 0]
    feature, weight, case_max = feature[best], weight[best], case_max[best]

    counts = np.bincount(feature, minlength=len(firsts))
    score, mean_attention, mean_case_max = (
        np.bincount(feature, values, minlength=len(firsts)) / counts
        for values in (weight / case_max, weight, case_max))
    # names as Python strings: a numpy str array drops trailing NULs, and a per-token
    # order differs from the joined name's once a token holds a character below " "
    text = np.array(tokens, dtype=object)
    names = text[windows[firsts, 0]]
    for column in windows[firsts, 1:].T:
        names = names + " " + text[column]
    order = np.lexsort((_ranks(names), -counts, -score))
    return [SymptomScore(name, class_name, s, n, a, c)  # positional: keywords cost a third more
            for name, s, n, a, c in zip(names[order].tolist(), score[order].tolist(),
                                        counts[order].tolist(), mean_attention[order].tolist(),
                                        mean_case_max[order].tolist())]


def _ranks(values: np.ndarray) -> np.ndarray:
    """Each value's place in ``values`` sorted, ties in their given order."""
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[np.argsort(values, kind="stable")] = np.arange(len(values))
    return ranks


def pair_synergy(
    unigram_scores: list[SymptomScore], bigram_scores: list[SymptomScore]
) -> list[PairSynergy]:
    """Compare each scored bigram against its members' unigram scores.

    Both lists must come from the same class and data; every bigram
    member then has a unigram score, because it occurred in the same
    cases. Returns all pairs sorted by margin descending, then by first
    and then second token.
    """
    if not bigram_scores:
        return []
    classes = {s.class_name for s in unigram_scores} | {s.class_name for s in bigram_scores}
    if len(classes) != 1:
        raise ConfigError(f"score lists span classes {sorted(classes)}")
    index = {s.feature: i for i, s in enumerate(unigram_scores)}
    firsts, _, seconds = zip(*(s.feature.partition(" ") for s in bigram_scores))
    members = np.array([[index.get(token, -1) for token in side] for side in (firsts, seconds)])
    missing = (members < 0).any(axis=0)
    if missing.any():
        raise ConfigError(f"no unigram score for a member of "
                          f"{bigram_scores[int(missing.argmax())].feature!r}")
    unigram = np.array([s.score for s in unigram_scores])
    a, b = unigram[members]
    pair = np.array([s.score for s in bigram_scores])
    margin = pair - np.maximum(a, b)
    ranks = _ranks(np.array([s.feature for s in unigram_scores], dtype=object))[members]
    order = np.lexsort((ranks[1], ranks[0], -margin))
    firsts, seconds = (np.array(side, dtype=object)[order].tolist() for side in (firsts, seconds))
    return [PairSynergy(*row) for row in zip(firsts, seconds, a[order].tolist(), b[order].tolist(),
                                             pair[order].tolist(), margin[order].tolist())]


# -- drop experiments ---------------------------------------------------------


def _closed_up_ids(ids: np.ndarray, keep: np.ndarray, max_len: int) -> np.ndarray:
    """The model's (N, max_len) ids: each row's kept ids closed up, cut to
    ``max_len`` and padded."""
    position = np.cumsum(keep, axis=1) - 1
    keep = keep & (position < max_len)
    out = np.full((len(ids), max_len), PAD_ID)
    out[keep.nonzero()[0], position[keep]] = ids[keep]
    return out


def _drop_mask(ids: np.ndarray, drops: int, ranking: np.ndarray | None, seed: int) -> np.ndarray:
    """The min(drops, len - 1) tokens each row of ``ids`` loses, as a boolean matrix
    shaped like ``ids``. With a ``ranking`` (a score per vocabulary id, -inf for an
    unranked one) the highest-ranked go, the earlier of two tied ones first, and
    unranked tokens sort below every ranked one; <pad> is never ranked. Without one,
    they are drawn from a stream derived from ``seed``, one draw per record that loses
    a token."""
    if drops < 1:
        raise ConfigError("drops must be >= 1")
    lengths = (ids != PAD_ID).sum(axis=1)
    n_drop = np.minimum(drops, lengths - 1)
    mask = np.zeros(ids.shape, dtype=bool)
    if ranking is None:
        rng = np.random.default_rng(derive_seed(seed, "drop-random"))
        for i in np.flatnonzero(n_drop > 0).tolist():
            mask[i, rng.choice(int(lengths[i]), size=int(n_drop[i]), replace=False)] = True
        return mask
    # sort keys: score descending, unranked tokens and then padding below every
    # ranked token; the stable sort breaks ties by position
    keys = -ranking
    keys[PAD_ID] = np.inf
    order = np.argsort(keys[ids], axis=1, kind="stable")
    np.put_along_axis(mask, order, np.arange(ids.shape[1]) < n_drop[:, None], axis=1)
    return mask


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
    each drop count d in 1..max_drops, each deleting what ``_drop_mask``
    picks at seed ``derive_seed(seed, f"drop-{d}")``. Random passes no
    ranking; both rankings score vocabulary ids from the ``class_name``
    cases of the training split, never from test data: frequency counts
    the ids there, attention takes the unigram scores of the same cases.
    The rows report metrics only; deciding what the ordering means is the
    caller's job.

    The test split is coded once, untruncated, so a deletion pulls in
    tokens past max_len; each condition is a deletion mask over those
    ids, and its closed-up rows, cut to max_len, go through one
    ``predict_probs`` pass.
    """
    if max_drops < 1:
        raise ConfigError("max_drops must be >= 1")
    class_records = [rec for rec in train_records if rec.label == class_name]
    class_ids = id_matrix(class_records, vocab)
    counts = np.bincount(class_ids[class_ids != PAD_ID], minlength=len(vocab))
    freq_rank = np.where(counts > 0, counts, -np.inf)
    att_rank = np.full(len(vocab), -np.inf)
    for s in score_features(params, class_records, vocab, class_name, gram_size=1):
        att_rank[vocab.token_to_id[s.feature]] = s.score

    ids = id_matrix(test_records, vocab)
    real = ids != PAD_ID
    demographics = demographics_array(test_records)
    labels = np.array([LABELS.index(rec.label) for rec in test_records])

    def metrics(drop: np.ndarray) -> Metrics:
        kept = _closed_up_ids(ids, real & ~drop, params.config.max_len)
        return metrics_from(labels, predict_probs(params, kept, demographics).argmax(axis=1))

    rows = [DropRow("Baseline", "baseline", 0, metrics(np.zeros(ids.shape, dtype=bool)))]
    for d in range(1, max_drops + 1):
        for kind, ranking in (("random", None), ("frequency", freq_rank), ("attention", att_rank)):
            drop = _drop_mask(ids, d, ranking, derive_seed(seed, f"drop-{d}"))
            word = kind.capitalize()
            label = f"{word} Drop" if d == 1 else f"{d} {word} Drops"
            rows.append(DropRow(label, kind, d, metrics(drop)))
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
