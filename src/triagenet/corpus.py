"""Synthetic triage corpus generation, vocabulary, and splits.

The generator plants ground truth: urgent cases carry either one
red-flag token or one adjacent token pair whose members are harmless on
their own; general-practice cases carry at least one moderate symptom;
telecare cases carry only mild symptoms. Mild co-symptoms appear in
every class (with a skewed frequency profile, so the most frequent
tokens carry no class signal), which keeps documents length-matched and
the classes separable by token content alone when label noise is off.
Isolated pair members additionally leak into all classes at the noise
rate, so each member stays individually uninformative and only the
adjacent combination signals urgency.
"""

from __future__ import annotations

import hashlib
import json
import json.scanner
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import ConfigError, Schema, check, field_types

LABELS = ("urgent_care", "general_practice", "telecare")
URGENT, GENERAL_PRACTICE, TELECARE = LABELS

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

GENDERS = ("male", "female")
MAX_AGE = 110

# a generator spec, record, or split request is malformed
SpecValidationError = ConfigError


@dataclass
class CaseRecord:
    """One synthetic patient contact.

    ``planted_flags`` holds token indices of ground-truth red-flag
    content (a red-flag single, or both members of a planted pair),
    independent of any later label flip.
    """

    tokens: list[str]
    label: str
    age: int
    gender: str
    planted_flags: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class GeneratorSpec(Schema):
    """Knobs for the synthetic corpus generator."""

    section = "generator"

    n_red_flags: int = 10
    n_red_pairs: int = 5
    n_moderate: int = 90
    n_benign: int = 180
    n_filler: int = 200
    proportions: tuple[float, float, float] = (0.44, 0.17, 0.39)
    urgent_length: tuple[int, int, int] = (3, 8, 16)
    gp_length: tuple[int, int, int] = (3, 8, 16)
    tele_length: tuple[int, int, int] = (3, 8, 16)
    p_noise: float = 0.1
    label_noise: float = 0.0
    mode: str = "symptoms"
    pair_case_rate: float = 0.35

    def validate(self) -> None:
        super().validate()
        for name in ("n_red_flags", "n_red_pairs", "n_moderate", "n_benign", "n_filler"):
            if getattr(self, name) < 1:
                raise SpecValidationError(f"{name} must be >= 1")
        if any(p <= 0 for p in self.proportions):
            raise SpecValidationError("proportions must be positive")
        if abs(sum(self.proportions) - 1.0) > 1e-9:
            raise SpecValidationError("proportions must sum to 1")
        for name in ("urgent_length", "gp_length", "tele_length"):
            lo, mean, hi = getattr(self, name)
            if not (1 <= lo <= mean <= hi):
                raise SpecValidationError(f"{name} must satisfy 1 <= min <= mean <= max")
        if self.urgent_length[0] < 2:
            raise SpecValidationError("urgent_length min must be >= 2 to fit a planted pair")
        for name in ("p_noise", "label_noise"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise SpecValidationError(f"{name} must be in [0, 1)")
        if self.mode not in ("symptoms", "fulltext"):
            raise SpecValidationError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.pair_case_rate <= 1.0:
            raise SpecValidationError("pair_case_rate must be in [0, 1]")


@dataclass(frozen=True)
class Lexicon:
    """The disjoint token strata a spec generates from."""

    red_flags: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    moderate: tuple[str, ...]
    benign: tuple[str, ...]
    filler: tuple[str, ...]


def build_lexicon(spec: GeneratorSpec) -> Lexicon:
    """Deterministic stratified lexicon for a spec; strata never overlap."""
    return Lexicon(
        red_flags=tuple(f"crit{i:02d}" for i in range(spec.n_red_flags)),
        pairs=tuple((f"duo{i:02d}a", f"duo{i:02d}b") for i in range(spec.n_red_pairs)),
        moderate=tuple(f"mod{i:02d}" for i in range(spec.n_moderate)),
        benign=tuple(f"mild{i:02d}" for i in range(spec.n_benign)),
        filler=tuple(f"word{i:03d}" for i in range(spec.n_filler)),
    )


def oracle_label(tokens: Sequence[str], lexicon: Lexicon) -> str:
    """Rule the generator plants: a red-flag token, or both members of one pair
    anywhere in the tokens, means urgent; else any moderate symptom means general
    practice; else telecare.

    The pair test is co-occurrence, not adjacency. On generated corpora the
    two agree: a pair case plants its pair side by side (filler never lands
    between them), and every other case holds at most one pair member,
    because ``_lone_member`` never plants a partner.
    """
    toks = set(tokens)
    if toks & set(lexicon.red_flags):
        return URGENT
    for a, b in lexicon.pairs:
        if a in toks and b in toks:
            return URGENT
    if toks & set(lexicon.moderate):
        return GENERAL_PRACTICE
    return TELECARE


@dataclass
class Corpus:
    """Generated or loaded case records."""

    records: list[CaseRecord]

    def __len__(self) -> int:
        return len(self.records)


def _largest_remainder(quotas: Sequence[float], total: int) -> list[int]:
    floors = [math.floor(q) for q in quotas]
    remainder = total - sum(floors)
    by_frac = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - floors[i]), i))
    for i in by_frac[:remainder]:
        floors[i] += 1
    return floors


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1)
    return w / w.sum()


def _draw_length(rng: np.random.Generator, dist: tuple[int, int, int]) -> int:
    lo, mean, hi = dist
    return int(np.clip(lo + rng.poisson(mean - lo), lo, hi))


class _CaseBuilder:
    def __init__(self, spec: GeneratorSpec, lex: Lexicon, rng: np.random.Generator):
        self.spec = spec
        self.lex = lex
        self.rng = rng
        self.red = np.array(lex.red_flags)
        self.benign = np.array(lex.benign)
        self.moderate = np.array(lex.moderate)
        self.filler = np.array(lex.filler)
        self.members = np.array([t for pair in lex.pairs for t in pair])
        self.w_benign = _zipf_weights(len(self.benign))
        self.w_moderate = _zipf_weights(len(self.moderate))
        self.w_filler = _zipf_weights(len(self.filler))

    def _sample(self, pool: np.ndarray, weights: np.ndarray, n: int) -> list[str]:
        n = min(n, len(pool))
        if n <= 0:
            return []
        return [str(t) for t in self.rng.choice(pool, size=n, replace=False, p=weights)]

    def _shuffle(self, items: list[str]) -> list[str]:
        order = self.rng.permutation(len(items))
        return [items[i] for i in order]

    def _lone_member(self, budget: int) -> list[str]:
        # a single pair member is harmless on its own; never plant its partner
        if budget > 0 and self.rng.random() < self.spec.p_noise:
            return [str(self.rng.choice(self.members))]
        return []

    def build(self, label: str) -> tuple[list[str], list[int]]:
        rng = self.rng
        if label == URGENT:
            length = _draw_length(rng, self.spec.urgent_length)
            pair_case = rng.random() < self.spec.pair_case_rate
            planted = 2 if pair_case else 1
            # co-symptoms stay benign: a moderate symptom planted next to a
            # red flag reliably steals the attention maximum and saturates
            # the urgent-class feature ranking with non-red tokens
            extras: list[str] = []
            if not pair_case:
                extras += self._lone_member(length - planted)
            co = self._shuffle(
                extras + self._sample(self.benign, self.w_benign, length - planted - len(extras))
            )
            if pair_case:
                a, b = self.lex.pairs[int(rng.integers(0, len(self.lex.pairs)))]
                pos = int(rng.integers(0, len(co) + 1))
                return co[:pos] + [a, b] + co[pos:], [pos, pos + 1]
            red = str(rng.choice(self.red))
            pos = int(rng.integers(0, len(co) + 1))
            return co[:pos] + [red] + co[pos:], [pos]
        if label == GENERAL_PRACTICE:
            length = _draw_length(rng, self.spec.gp_length)
            n_mod = max(1, min(int(rng.poisson(1.5)), length - 1, 3))
            co = self._sample(self.moderate, self.w_moderate, n_mod)
            co += self._lone_member(length - len(co))
            co += self._sample(self.benign, self.w_benign, length - len(co))
            return self._shuffle(co), []
        length = _draw_length(rng, self.spec.tele_length)
        co = self._lone_member(length - 1)
        co += self._sample(self.benign, self.w_benign, length - len(co))
        return self._shuffle(co), []

    def interleave_filler(
        self, tokens: list[str], flags: list[int]
    ) -> tuple[list[str], list[int]]:
        # pad the symptom sequence with function words; a planted pair
        # stays adjacent so it remains one width-2 window
        rng = self.rng
        pair_tail = set()
        if len(flags) == 2 and flags[1] == flags[0] + 1:
            pair_tail.add(flags[1])
        out: list[str] = []
        new_flags = dict.fromkeys(flags, -1)
        for i, tok in enumerate(tokens):
            if i not in pair_tail:
                run = int(rng.poisson(3.0))
                out.extend(self.rng.choice(self.filler, size=run, p=self.w_filler))
            if i in new_flags:
                new_flags[i] = len(out)
            out.append(tok)
        out.extend(rng.choice(self.filler, size=int(rng.poisson(3.0)), p=self.w_filler))
        return [str(t) for t in out], [new_flags[i] for i in flags]


def generate_corpus(spec: GeneratorSpec, n: int, seed: int) -> Corpus:
    """Generate ``n`` records under ``spec``, deterministically in ``seed``."""
    spec.validate()
    if n < 1:
        raise SpecValidationError("corpus size must be >= 1")
    rng = np.random.default_rng(seed)
    lex = build_lexicon(spec)
    builder = _CaseBuilder(spec, lex, rng)

    counts = _largest_remainder([n * p for p in spec.proportions], n)
    records: list[CaseRecord] = []
    for label, count in zip(LABELS, counts):
        for _ in range(count):
            tokens, flags = builder.build(label)
            if spec.mode == "fulltext":
                tokens, flags = builder.interleave_filler(tokens, flags)
            final_label = label
            if spec.label_noise > 0 and rng.random() < spec.label_noise:
                others = [c for c in LABELS if c != label]
                final_label = others[int(rng.integers(0, 2))]
            records.append(
                CaseRecord(
                    tokens=tokens,
                    label=final_label,
                    age=int(rng.integers(0, 101)),
                    gender=str(rng.choice(np.array(GENDERS))),
                    planted_flags=flags,
                )
            )
    rng.shuffle(records)
    return Corpus(records=records)


# -- vocabulary --------------------------------------------------------------


class Vocabulary:
    """Token-to-id mapping with reserved padding (0) and unknown (1) slots."""

    def __init__(self, tokens_in_order: Sequence[str]):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN] + list(tokens_in_order)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise SpecValidationError("vocabulary tokens must be unique")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.id_to_token[2:], fh, ensure_ascii=False)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))


def build_vocab(records: Iterable[CaseRecord], min_count: int = 1) -> Vocabulary:
    """Count tokens, drop rare tokens, assign dense ids.

    Ids start at 2 and follow (count desc, token asc) order, so equal
    corpora always produce equal vocabularies.
    """
    counts: dict[str, int] = {}
    for r in records:
        for tok in r.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


@dataclass
class EncodedCase:
    """Model-ready view of a record: padded ids, demographics, class index."""

    ids: np.ndarray
    demographics: np.ndarray
    label: int


def stack_cases(cases: Sequence[EncodedCase]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cases as arrays: (B, max_len) ids, (B, 3) demographics and (B,) labels."""
    return (np.array([c.ids for c in cases]), np.array([c.demographics for c in cases]),
            np.array([c.label for c in cases]))


def demographics_of(record: CaseRecord) -> np.ndarray:
    """The model's demographics input: age over MAX_AGE, then male and female indicators."""
    return np.array(
        [
            record.age / MAX_AGE,
            1.0 if record.gender == "male" else 0.0,
            1.0 if record.gender == "female" else 0.0,
        ]
    )


def demographics_array(records: Sequence[CaseRecord]) -> np.ndarray:
    """``demographics_of`` of each record as one (N, 3) array, equal float for float."""
    out = np.zeros((len(records), 3))
    out[:, 0] = [rec.age for rec in records]  # an integer age converts exactly
    out[:, 0] /= MAX_AGE
    out[:, 1] = [rec.gender == "male" for rec in records]
    out[:, 2] = [rec.gender == "female" for rec in records]
    return out


def encode(record: CaseRecord, vocab: Vocabulary, max_len: int) -> EncodedCase:
    """Map tokens to ids (truncate/pad to ``max_len``) and pack demographics."""
    if max_len < 1:
        raise SpecValidationError("max_len must be >= 1")
    if not record.tokens:
        raise SpecValidationError("cannot encode a record with no tokens")
    ids = np.zeros(max_len, dtype=np.int64)
    for i, tok in enumerate(record.tokens[:max_len]):
        ids[i] = vocab.id_of(tok)
    return EncodedCase(ids=ids, demographics=demographics_of(record),
                       label=LABELS.index(record.label))


def encode_corpus(
    records: Sequence[CaseRecord], vocab: Vocabulary, max_len: int
) -> list[EncodedCase]:
    """``encode`` of each record, in one pass: each case's ids and demographics are
    rows of one (N, max_len) and one (N, 3) array, equal to ``encode``'s bit for bit.
    For records of the annotated types it raises what ``encode`` raises first.
    """
    if max_len < 1:
        raise SpecValidationError("max_len must be >= 1")
    labels = []
    for rec in records:  # encode's checks, in its order
        if not rec.tokens:
            raise SpecValidationError("cannot encode a record with no tokens")
        labels.append(LABELS.index(rec.label))
    ids = id_matrix(records, vocab, max_len)
    return [EncodedCase(*case) for case in zip(ids, demographics_array(records), labels)]


def id_matrix(records: Sequence[CaseRecord], vocab: Vocabulary,
              width: int | None = None) -> np.ndarray:
    """The records' tokens as an (N, width) int64 matrix of vocabulary ids, a row
    per record: unknown tokens read UNK_ID, and each row is cut at ``width`` and
    padded with PAD_ID. With no width every token is kept, and the rows are as
    wide as the longest record."""
    cut = [rec.tokens[:width] for rec in records]
    lengths = np.fromiter(map(len, cut), dtype=np.int64, count=len(cut))
    width = int(lengths.max(initial=0)) if width is None else width
    ids = np.full((len(cut), width), PAD_ID, dtype=np.int64)
    id_of = vocab.token_to_id.get
    flat = [id_of(tok, UNK_ID) for toks in cut for tok in toks]
    ids[np.arange(width) < lengths[:, None]] = flat  # a mask fills in row-major order
    return ids


# -- splits ----------------------------------------------------------------


def split(
    records: Sequence[CaseRecord],
    ratios: tuple[float, float, float] = (0.9, 0.05, 0.05),
    seed: int = 0,
) -> tuple[list[int], list[int], list[int]]:
    """Stratified train/val/test index split.

    Split totals follow largest-remainder rounding of the ratios; each
    class lands within one record of its ideal quota per split. The
    same records, ratios, and seed always produce the same partition.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise SpecValidationError("ratios must be three nonnegative numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SpecValidationError("ratios must sum to 1")
    n = len(records)
    targets = _largest_remainder([n * r for r in ratios], n)

    rng = np.random.default_rng(seed)
    by_class: dict[str, list[int]] = {c: [] for c in LABELS}
    for i, r in enumerate(records):
        if r.label not in by_class:
            raise SpecValidationError(f"unknown label {r.label!r}")
        by_class[r.label].append(i)
    for idxs in by_class.values():
        rng.shuffle(idxs)

    classes = [c for c in LABELS if by_class[c]]
    quota = {c: [len(by_class[c]) * r for r in ratios] for c in classes}
    alloc = {c: [math.floor(q) for q in quota[c]] for c in classes}
    row_deficit = {c: len(by_class[c]) - sum(alloc[c]) for c in classes}
    col_deficit = [t - sum(alloc[c][s] for c in classes) for s, t in enumerate(targets)]

    cells = sorted(
        ((c, s) for c in classes for s in range(3)),
        key=lambda cs: (-(quota[cs[0]][cs[1]] - math.floor(quota[cs[0]][cs[1]])), cs[0], cs[1]),
    )
    while sum(col_deficit) > 0:
        progressed = False
        for c, s in cells:
            if row_deficit[c] > 0 and col_deficit[s] > 0:
                alloc[c][s] += 1
                row_deficit[c] -= 1
                col_deficit[s] -= 1
                progressed = True
        if not progressed:  # pragma: no cover - deficits always clear
            raise RuntimeError("split allocation failed to converge")

    out: tuple[list[int], list[int], list[int]] = ([], [], [])
    for c in classes:
        start = 0
        for s in range(3):
            out[s].extend(by_class[c][start : start + alloc[c][s]])
            start += alloc[c][s]
    return out


@dataclass(frozen=True)
class DataContract(Schema):
    """What a model or embedding file was trained on: the corpus file's sha256, the
    record indices of each split in the order ``split`` returned them, and the
    vocabulary ``tokens`` in id order after padding and unknown. Commands that read
    the file take split and vocabulary from here, and parse only the records they use.
    """

    section = "data"

    corpus_sha256: str
    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]
    tokens: tuple[str, ...]

    @property
    def n_records(self) -> int:
        return len(self.train) + len(self.val) + len(self.test)

    def validate(self) -> None:
        super().validate()
        if set(self.train + self.val + self.test) != set(range(self.n_records)):
            raise SpecValidationError(
                "data.train, data.val and data.test must split the record indices 0..n-1"
            )


# -- serialization -----------------------------------------------------------


def _validate_record(rec: CaseRecord) -> None:
    """The range rules of a record whose field types are already checked."""
    text = "".join(rec.tokens)  # n-grams are named by tokens joined with a space
    if text.split() != [text] or not {"", PAD_TOKEN, UNK_TOKEN}.isdisjoint(rec.tokens):
        raise SpecValidationError("record tokens must be a nonempty list of nonempty strings "
                                  "without whitespace, other than the reserved "
                                  f"{PAD_TOKEN} and {UNK_TOKEN}")
    if rec.label not in LABELS:
        raise SpecValidationError(f"unknown label {rec.label!r}")
    if not 0 <= rec.age <= MAX_AGE:
        raise SpecValidationError(f"age must be an integer in [0, {MAX_AGE}]")
    if rec.gender not in GENDERS:
        raise SpecValidationError(f"gender must be one of {GENDERS}")
    for i in rec.planted_flags:
        if not 0 <= i < len(rec.tokens):
            raise SpecValidationError("planted_flags must index into tokens")


# json's C scanner: a whole-line scan skips json.loads' Python steps around it
_scan = json.scanner.make_scanner(json.JSONDecoder())
_RECORD_TYPES = field_types(CaseRecord)
_write_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def save_corpus(corpus: Corpus, path) -> None:
    """Write one compact JSON object per record, each checked as ``load_corpus`` checks it."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in corpus.records:
            obj = check(vars(rec), _RECORD_TYPES, "record")
            _validate_record(rec)
            fh.write(_write_line(obj) + "\n")


def _decode(line_no: int, line: str):
    """One nonblank, stripped line of a corpus file as a JSON value; errors name the line.

    A scan that fails or stops short of the line's end leaves the verdict, and the
    message, to ``json.loads``.
    """
    try:
        value, end = _scan(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError):  # no value at 0, or a JSONDecodeError
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise SpecValidationError(f"line {line_no}: not valid JSON ({e})") from e


def _parse_record(line_no: int, value) -> CaseRecord:
    """One decoded line of a corpus file as a checked record; errors name the line."""
    try:
        rec = CaseRecord(**check(value, _RECORD_TYPES, "record"))
        _validate_record(rec)
    except TypeError as e:  # a required field is absent
        raise SpecValidationError(f"line {line_no}: missing field ({e})") from e
    except ConfigError as e:
        raise SpecValidationError(f"line {line_no}: {e}") from e
    return rec


class CorpusFile:
    """A JSONL corpus file read once: the sha256 of its bytes, its record count,
    and the records a caller names, each parsed and checked on request.

    Line numbers in errors count every line, blank ones included; a line
    ends at a line feed, a carriage return or both, as in a text-mode read.
    """

    def __init__(self, path):
        # line by line: a whole-file buffer raised the tour benchmark's peak RSS by
        # about 3 MB, since once glibc frees a large mapped block it serves later
        # allocations up to that size from the heap
        digest = hashlib.sha256()
        self._rows = []  # (line number, stripped text) of each record
        line_no = 0
        with open(path, "rb") as fh:
            for chunk in fh:  # ends at a line feed; splitlines also breaks at a lone CR
                digest.update(chunk)
                for line in chunk.splitlines():
                    line_no += 1
                    try:
                        text = line.decode("utf-8").strip()
                    except UnicodeDecodeError as e:
                        raise SpecValidationError(
                            f"line {line_no}: not UTF-8 text ({e.reason})"
                        ) from None
                    if text:
                        self._rows.append((line_no, text))
        self.sha256 = digest.hexdigest()

    def __len__(self) -> int:
        return len(self._rows)

    def records(self, indices: Sequence[int] | None = None,
                label: str | None = None) -> list[CaseRecord]:
        """The records at ``indices`` (every record for None), in that order.

        With a ``label``, only the records of that class. Every named line is
        still decoded, but one that decodes to an object whose ``label`` names
        another class in LABELS is skipped unchecked; every other line gets the
        full check, so a malformed record still fails with its line's error.
        A ``label`` outside LABELS is refused.
        """
        if label is not None and label not in LABELS:
            raise SpecValidationError(f"unknown class {label!r}")
        if not self._rows:
            raise SpecValidationError("corpus file holds no records")
        if indices is None:
            rows = self._rows
        else:
            if indices and not 0 <= min(indices) <= max(indices) < len(self._rows):
                raise SpecValidationError(f"record indices out of range for {len(self)} records")
            rows = [self._rows[i] for i in indices]
        others = () if label is None else tuple(c for c in LABELS if c != label)
        values = ((n, _decode(n, line)) for n, line in rows)
        return [_parse_record(n, value) for n, value in values
                if not (isinstance(value, dict) and value.get("label") in others)]


def load_corpus(path) -> Corpus:
    """Read a JSONL corpus, each record type-checked; ``planted_flags`` is optional."""
    return Corpus(records=CorpusFile(path).records())


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
