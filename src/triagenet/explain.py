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
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError
from .corpus import LABELS, PAD_ID, CaseRecord, Vocabulary, demographics_array
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
    codes, tokens = _token_codes(records)
    ids = _closed_up_ids(codes, codes >= 0, np.array([vocab.id_of(tok) for tok in tokens]),
                         cfg.max_len)
    demographics = demographics_array(records)
    _, attention, lengths = predict_attention(params, ids, demographics)
    return [_rank(codes, tokens, attention[m], lengths, class_name, m) for m in gram_sizes]


def _gram_keys(windows: np.ndarray, n_codes: int) -> np.ndarray:
    """One integer per row of token codes, equal for equal rows: the codes in
    mixed radix ``n_codes``, renumbered first whenever a digit could overflow."""
    keys = windows[:, 0]
    for digit in windows.T[1:]:
        if keys.size and int(keys.max()) >= np.iinfo(np.int64).max // n_codes:
            keys = np.unique(keys, return_inverse=True)[1]
        keys = keys * n_codes + digit
    return keys


def _rank(codes: np.ndarray, tokens: list[str], alpha: np.ndarray, lengths: np.ndarray,
          class_name: str, gram_size: int) -> list[SymptomScore]:
    """One gram size's scores from the class's coded records and their attention.

    The sums run over each feature's cases in record order, one ``bincount``
    each, so they add the same floats in the same order as a per-case loop.
    """
    valid = np.arange(alpha.shape[1]) <= (lengths - gram_size)[:, None]
    case, start = valid.nonzero()
    weight = alpha[case, start]
    case_max = alpha.max(axis=1, where=valid, initial=0.0)[case]  # softmax output, so > 0
    windows = codes[case[:, None], start[:, None] + np.arange(gram_size)]
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


def _token_codes(records: list[CaseRecord]) -> tuple[np.ndarray, list[str]]:
    """Every record's tokens, untruncated, as an (N, longest) matrix of codes
    into the returned list of distinct tokens; -1 pads each row past its end."""
    index: dict[str, int] = {}
    flat = [index.setdefault(tok, len(index)) for rec in records for tok in rec.tokens]
    lengths = np.array([len(rec.tokens) for rec in records], dtype=np.int64)
    codes = np.full((len(records), lengths.max(initial=0)), -1)
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = flat
    return codes, list(index)


def _closed_up_ids(codes: np.ndarray, keep: np.ndarray, ids_of: np.ndarray,
                   max_len: int) -> np.ndarray:
    """The model's (N, max_len) ids: each row's kept codes closed up, cut to
    ``max_len``, mapped through ``ids_of`` and padded."""
    position = np.cumsum(keep, axis=1) - 1
    keep = keep & (position < max_len)
    ids = np.full((len(codes), max_len), PAD_ID)
    ids[keep.nonzero()[0], position[keep]] = ids_of[codes[keep]]
    return ids


def _drop_mask(
    codes: np.ndarray, tokens: list[str], drops: int, ranking: dict[str, float] | None, seed: int
) -> np.ndarray:
    """Which of the coded tokens ``drop_dataset`` deletes, as a boolean matrix shaped like ``codes``."""
    if drops < 1:
        raise ConfigError("drops must be >= 1")
    lengths = (codes >= 0).sum(axis=1)
    n_drop = np.minimum(drops, lengths - 1)
    mask = np.zeros(codes.shape, dtype=bool)
    if ranking is None:
        rng = np.random.default_rng(derive_seed(seed, "drop-random"))
        for i in np.flatnonzero(n_drop > 0).tolist():
            mask[i, rng.choice(int(lengths[i]), size=int(n_drop[i]), replace=False)] = True
        return mask
    # sort keys: score descending, unranked tokens and then padding (code -1,
    # the appended last entry) below every ranked token; the stable sort
    # breaks ties by position
    keys = np.array([-ranking.get(tok, -np.inf) for tok in tokens] + [np.inf])[codes]
    order = np.argsort(keys, axis=1, kind="stable")
    np.put_along_axis(mask, order, np.arange(codes.shape[1]) < n_drop[:, None], axis=1)
    return mask


def drop_dataset(
    records: list[CaseRecord],
    drops: int,
    ranking: dict[str, float] | None = None,
    seed: int = 0,
) -> list[CaseRecord]:
    """Delete min(drops, len - 1) tokens from every record.

    With a ``ranking`` (token to score, such as attention score or class
    frequency) the highest-ranked tokens go, the earlier of two tied ones
    first, and tokens it does not rank sort below every ranked one.
    Without one, the tokens are drawn at random from a stream derived from
    ``seed``, one draw per record that loses a token. No case ends up
    empty, and the corpus size never changes. Planted-flag indices are
    remapped to the surviving positions. This is the record view of the
    deletions ``drop_experiment`` makes.
    """
    codes, tokens = _token_codes(records)
    mask = _drop_mask(codes, tokens, drops, ranking, seed)
    out = []
    for rec, dropped in zip(records, mask.tolist()):
        keep = [i for i in range(len(rec.tokens)) if not dropped[i]]
        new_index = {old: new for new, old in enumerate(keep)}
        out.append(rec if len(keep) == len(rec.tokens) else replace(
            rec, tokens=[rec.tokens[i] for i in keep],
            planted_flags=[new_index[i] for i in rec.planted_flags if i in new_index]))
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
    each drop count d in 1..max_drops, each deleting what ``drop_dataset``
    deletes at seed ``derive_seed(seed, f"drop-{d}")``. Random passes no
    ranking; both ranking tables come from the ``class_name`` cases of the
    training split, never from test data: frequency counts token
    occurrences there, attention uses unigram scores from the same split.
    The rows report metrics only; deciding what the ordering means is the
    caller's job.

    The test split is coded once, untruncated, so a deletion pulls in
    tokens past max_len; each condition is a deletion mask over those
    codes, and its closed-up rows, cut to max_len, go through one
    ``predict_probs`` pass.
    """
    if max_drops < 1:
        raise ConfigError("max_drops must be >= 1")
    freq_rank = Counter(tok for rec in train_records if rec.label == class_name
                        for tok in rec.tokens)
    att_rank = {
        s.feature: s.score
        for s in score_features(params, train_records, vocab, class_name, gram_size=1)
    }

    codes, tokens = _token_codes(test_records)
    ids_of = np.array([vocab.id_of(tok) for tok in tokens])
    demographics = demographics_array(test_records)
    labels = np.array([LABELS.index(rec.label) for rec in test_records])

    def metrics(drop: np.ndarray) -> Metrics:
        ids = _closed_up_ids(codes, (codes >= 0) & ~drop, ids_of, params.config.max_len)
        return metrics_from(labels, predict_probs(params, ids, demographics).argmax(axis=1))

    rows = [DropRow("Baseline", "baseline", 0, metrics(np.zeros(codes.shape, dtype=bool)))]
    for d in range(1, max_drops + 1):
        for kind, ranking in (("random", None), ("frequency", freq_rank), ("attention", att_rank)):
            drop = _drop_mask(codes, tokens, d, ranking, derive_seed(seed, f"drop-{d}"))
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
