"""Tests for corpus generation, tokenization, vocabulary, and splits."""

import collections
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triagenet import corpus as corpus_module
from triagenet.config import ConfigError, check, exact_check, field_types
from triagenet.corpus import (
    GENDERS,
    GENERAL_PRACTICE,
    LABELS,
    MAX_AGE,
    PAD_ID,
    PAD_TOKEN,
    TELECARE,
    UNK_ID,
    UNK_TOKEN,
    URGENT,
    CaseRecord,
    Corpus,
    CorpusFile,
    GeneratorSpec,
    SpecValidationError,
    Vocabulary,
    build_lexicon,
    build_vocab,
    demographics_array,
    demographics_of,
    encode,
    encode_corpus,
    file_sha256,
    generate_corpus,
    load_corpus,
    oracle_label,
    save_corpus,
    split,
)


@pytest.fixture(scope="module")
def default_corpus():
    return generate_corpus(GeneratorSpec(), 5000, seed=13)


class TestGenerator:
    def test_strata_are_disjoint(self):
        lex = build_lexicon(GeneratorSpec())
        strata = [
            set(lex.red_flags),
            {t for p in lex.pairs for t in p},
            set(lex.moderate),
            set(lex.benign),
            set(lex.filler),
        ]
        for i, a in enumerate(strata):
            assert a
            for b in strata[i + 1 :]:
                assert not (a & b)

    def test_class_proportions_within_one_percent(self, default_corpus):
        counts = collections.Counter(r.label for r in default_corpus.records)
        n = len(default_corpus.records)
        for label, p in zip(LABELS, GeneratorSpec().proportions):
            assert abs(counts[label] / n - p) < 0.01

    def test_every_clean_urgent_record_has_flags(self):
        corpus = generate_corpus(GeneratorSpec(p_noise=0.0, label_noise=0.0), 500, seed=3)
        for r in corpus.records:
            if r.label == URGENT:
                assert r.planted_flags
                for i in r.planted_flags:
                    assert r.tokens[i].startswith(("crit", "duo"))

    def test_content_rules(self, default_corpus):
        lex = build_lexicon(GeneratorSpec())
        red = set(lex.red_flags)
        moderate = set(lex.moderate)
        for r in default_corpus.records:
            toks = set(r.tokens)
            if r.label == URGENT:
                has_pair = any(a in toks and b in toks for a, b in lex.pairs)
                assert toks & red or has_pair
                assert not toks & moderate
            elif r.label == GENERAL_PRACTICE:
                assert toks & moderate
                assert not toks & red
            else:
                assert not toks & red
                assert not toks & moderate

    def test_separable_when_label_noise_off(self, default_corpus):
        lex = build_lexicon(GeneratorSpec())
        for r in default_corpus.records:
            assert oracle_label(r.tokens, lex) == r.label

    @pytest.mark.parametrize("mode", ["symptoms", "fulltext"])
    def test_oracle_pairs_are_planted_adjacent(self, mode):
        # oracle_label tests co-occurrence; on generated corpora every urgent
        # case without a red flag holds its one pair side by side, at planted_flags
        spec = GeneratorSpec(mode=mode, p_noise=0.5, pair_case_rate=0.5, label_noise=0.1)
        lex = build_lexicon(spec)
        red = set(lex.red_flags)
        pair_cases = [r for r in generate_corpus(spec, 1500, seed=21).records
                      if oracle_label(r.tokens, lex) == URGENT and not red & set(r.tokens)]
        assert len(pair_cases) > 150
        for r in pair_cases:
            i, j = r.planted_flags
            assert j == i + 1
            assert (r.tokens[i], r.tokens[j]) in lex.pairs
            members = [t for t in r.tokens if t.startswith("duo")]
            assert members == [r.tokens[i], r.tokens[j]]  # no other pair member anywhere

    def test_label_noise_flips_some_labels(self):
        spec = GeneratorSpec(label_noise=0.2)
        corpus = generate_corpus(spec, 1000, seed=7)
        lex = build_lexicon(spec)
        flips = sum(1 for r in corpus.records if oracle_label(r.tokens, lex) != r.label)
        assert 120 < flips < 280

    def test_deterministic_in_seed(self, tmp_path):
        spec = GeneratorSpec()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(generate_corpus(spec, 300, seed=42), a)
        save_corpus(generate_corpus(spec, 300, seed=42), b)
        assert a.read_bytes() == b.read_bytes()
        save_corpus(generate_corpus(spec, 300, seed=43), b)
        assert a.read_bytes() != b.read_bytes()

    def test_lengths_respect_bounds(self, default_corpus):
        spec = GeneratorSpec()
        bounds = {
            URGENT: spec.urgent_length,
            GENERAL_PRACTICE: spec.gp_length,
            TELECARE: spec.tele_length,
        }
        for r in default_corpus.records:
            lo, _, hi = bounds[r.label]
            assert lo <= len(r.tokens) <= hi

    def test_fulltext_interleaves_filler_and_keeps_pairs_adjacent(self):
        spec = GeneratorSpec(mode="fulltext")
        corpus = generate_corpus(spec, 400, seed=9)
        lex = build_lexicon(spec)
        filler = set(lex.filler)
        n_filler = sum(1 for r in corpus.records for t in r.tokens if t in filler)
        n_total = sum(len(r.tokens) for r in corpus.records)
        assert n_filler / n_total > 0.5
        for r in corpus.records:
            for i in r.planted_flags:
                assert r.tokens[i].startswith(("crit", "duo"))
            if len(r.planted_flags) == 2:
                a, b = r.planted_flags
                assert b == a + 1

    def test_spec_validation(self):
        with pytest.raises(SpecValidationError):
            GeneratorSpec(proportions=(0.5, 0.5, 0.5)).validate()
        with pytest.raises(SpecValidationError):
            GeneratorSpec(p_noise=1.0).validate()
        with pytest.raises(SpecValidationError):
            GeneratorSpec(n_red_pairs=0).validate()
        with pytest.raises(SpecValidationError):
            GeneratorSpec(mode="prose").validate()
        with pytest.raises(SpecValidationError):
            GeneratorSpec(urgent_length=(1, 4, 8)).validate()
        with pytest.raises(SpecValidationError):
            GeneratorSpec.from_dict({"n_red_flagz": 3})


class TestVocabulary:
    def test_reserved_ids_and_dense_assignment(self):
        records = [CaseRecord(["b", "a", "b"], TELECARE, 40, "female")]
        vocab = build_vocab(records)
        assert vocab.id_of("b") == 2  # most frequent first
        assert vocab.id_of("a") == 3
        assert vocab.id_of("missing") == UNK_ID
        assert len(vocab) == 4

    def test_min_count_filters(self):
        records = [CaseRecord(["x", "x", "y"], TELECARE, 40, "male")]
        vocab = build_vocab(records, min_count=2)
        assert vocab.id_of("x") == 2
        assert vocab.id_of("y") == UNK_ID

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab([CaseRecord(["a", "b", "c"], TELECARE, 1, "male")])
        vocab.save(tmp_path / "v.json")
        loaded = Vocabulary.load(tmp_path / "v.json")
        assert loaded.token_to_id == vocab.token_to_id


class TestEncode:
    def test_pad_truncate_and_demographics(self):
        vocab = build_vocab([CaseRecord(["a", "b"], TELECARE, 1, "male")])
        rec = CaseRecord(["a", "b", "a"], TELECARE, 55, "male")
        enc = encode(rec, vocab, max_len=5)
        assert enc.ids.tolist() == [vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("a"), 0, 0]
        np.testing.assert_allclose(enc.demographics, [0.5, 1.0, 0.0])
        assert enc.label == LABELS.index(TELECARE)
        short = encode(rec, vocab, max_len=2)
        assert short.ids.tolist() == [vocab.id_of("a"), vocab.id_of("b")]

    def test_unknown_becomes_unk(self):
        vocab = build_vocab([CaseRecord(["a"], TELECARE, 1, "male")])
        enc = encode(CaseRecord(["zzz", "a"], TELECARE, 1, "male"), vocab, max_len=3)
        assert enc.ids[0] == UNK_ID
        assert PAD_ID not in enc.ids[:2]

    def test_corpus_equals_per_record_encode(self):
        vocab = build_vocab([CaseRecord(["a", "b", "c"], TELECARE, 1, "male")])
        records = [
            CaseRecord(["a", "b", "c", "a", "b", "c"], URGENT, 0, "female"),  # truncated
            CaseRecord(["zzz", "a", "yyy"], GENERAL_PRACTICE, 110, "male"),  # unknown tokens
            CaseRecord(["b"], TELECARE, 37, "female"),  # one token
            CaseRecord(["q"], TELECARE, 1, "male"),  # one unknown token
            CaseRecord(["c", "b", "a", "c"], URGENT, 99, "male"),  # exactly max_len
        ]
        for max_len in (1, 2, 4, 9):
            cases = encode_corpus(records, vocab, max_len)
            assert len(cases) == len(records)
            for rec, case in zip(records, cases):
                one = encode(rec, vocab, max_len)
                assert case.ids.dtype == one.ids.dtype and case.ids.shape == one.ids.shape
                assert case.ids.tobytes() == one.ids.tobytes()
                assert case.demographics.tobytes() == one.demographics.tobytes()
                assert case.label == one.label
        assert encode_corpus([], vocab, 4) == []

    def test_corpus_keeps_encode_errors(self):
        vocab = build_vocab([CaseRecord(["a"], TELECARE, 1, "male")])
        good = CaseRecord(["a"], TELECARE, 1, "male")
        empty = CaseRecord([], TELECARE, 1, "male")
        unlabelled = CaseRecord(["a"], "er", 1, "male")

        def raised(call):
            with pytest.raises(Exception) as e:
                call()
            return type(e.value), str(e.value)

        # each failing list's first refused record decides
        for records, first, max_len in (([good], good, 0), ([good, empty], empty, 4),
                                        ([good, unlabelled], unlabelled, 4),
                                        ([unlabelled, empty], unlabelled, 4),
                                        ([empty, unlabelled], empty, 4)):
            expected = raised(lambda: encode(first, vocab, max_len))
            assert raised(lambda: [encode(r, vocab, max_len) for r in records]) == expected
            assert raised(lambda: encode_corpus(records, vocab, max_len)) == expected

    def test_demographics_array_equals_demographics_of(self):
        records = [CaseRecord(["a"], TELECARE, age, gender)
                   for age in range(MAX_AGE + 1) for gender in GENDERS]
        expected = np.array([demographics_of(r) for r in records])
        assert demographics_array(records).tobytes() == expected.tobytes()
        assert demographics_array(records).shape == (len(records), 3)
        assert demographics_array([]).shape == (0, 3)


class TestSplit:
    def test_exact_sizes_at_1000(self):
        corpus = generate_corpus(GeneratorSpec(), 1000, seed=1)
        tr, va, te = split(corpus.records, (0.9, 0.05, 0.05), seed=0)
        assert (len(tr), len(va), len(te)) == (900, 50, 50)

    def test_partition_is_disjoint_and_exhaustive(self):
        corpus = generate_corpus(GeneratorSpec(), 777, seed=2)
        tr, va, te = split(corpus.records, seed=5)
        all_idx = sorted(tr + va + te)
        assert all_idx == list(range(777))

    def test_stratification_within_two(self):
        corpus = generate_corpus(GeneratorSpec(), 1000, seed=3)
        parts = split(corpus.records, (0.9, 0.05, 0.05), seed=1)
        by_class = collections.Counter(r.label for r in corpus.records)
        for part, ratio in zip(parts, (0.9, 0.05, 0.05)):
            got = collections.Counter(corpus.records[i].label for i in part)
            for label in LABELS:
                assert abs(got[label] - by_class[label] * ratio) <= 2

    def test_deterministic(self):
        corpus = generate_corpus(GeneratorSpec(), 300, seed=4)
        assert split(corpus.records, seed=9) == split(corpus.records, seed=9)
        assert split(corpus.records, seed=9) != split(corpus.records, seed=10)

    def test_bad_ratios(self):
        records = generate_corpus(GeneratorSpec(), 10, seed=0).records
        with pytest.raises(SpecValidationError):
            split(records, (0.5, 0.2, 0.2), seed=0)

    @given(n=st.integers(min_value=3, max_value=400), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, n, seed):
        corpus = generate_corpus(GeneratorSpec(), n, seed=seed)
        tr, va, te = split(corpus.records, seed=seed)
        assert sorted(tr + va + te) == list(range(n))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        corpus = generate_corpus(GeneratorSpec(), 50, seed=6)
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert [r.tokens for r in loaded.records] == [r.tokens for r in corpus.records]
        assert [r.label for r in loaded.records] == [r.label for r in corpus.records]
        assert [r.planted_flags for r in loaded.records] == [
            r.planted_flags for r in corpus.records
        ]

    def test_planted_flags_optional_on_load(self, tmp_path):
        path = tmp_path / "ext.jsonl"
        path.write_text(
            json.dumps({"tokens": ["fieber"], "label": "telecare", "age": 30, "gender": "male"})
            + "\n"
        )
        loaded = load_corpus(path)
        assert loaded.records[0].planted_flags == []

    @pytest.mark.parametrize(
        "field, value, says",
        [
            ("tokens", "fever", "record.tokens must be a list, got 'fever'"),
            ("age", True, "record.age must be an integer, got True"),
            ("planted_flags", [False], r"record.planted_flags\[0\] must be an integer"),
            ("planted_flags", 5, "record.planted_flags must be a list, got 5"),
        ],
        ids=["tokens-string", "age-bool", "flag-bool", "flags-int"],
    )
    def test_wrong_typed_field_rejected(self, tmp_path, field, value, says):
        record = {"tokens": ["fieber", "husten"], "label": "telecare", "age": 30,
                  "gender": "male", "planted_flags": [0]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, field: value}) + "\n")
        with pytest.raises(SpecValidationError, match=f"line 2: {says}"):
            load_corpus(path)

    def test_wrong_typed_record_not_saved(self, tmp_path):
        corpus = Corpus([CaseRecord(tokens="fever", label=TELECARE, age=30, gender="male")])
        with pytest.raises(SpecValidationError, match="record.tokens must be a list"):
            save_corpus(corpus, tmp_path / "c.jsonl")

    @pytest.mark.parametrize("token", [PAD_TOKEN, UNK_TOKEN])
    def test_reserved_tokens_refused(self, tmp_path, token):
        # read as a corpus token, <pad> would be padding to the model
        record = CaseRecord(["fieber", token], TELECARE, 30, "male")
        with pytest.raises(SpecValidationError, match="reserved"):
            save_corpus(Corpus([record]), tmp_path / "c.jsonl")
        path = tmp_path / "ext.jsonl"
        path.write_text(json.dumps({**vars(record), "tokens": ["fieber"]}) + "\n"
                        + json.dumps(vars(record)) + "\n")
        with pytest.raises(SpecValidationError, match=f"^line 2: .*reserved {PAD_TOKEN}"):
            load_corpus(path)

    @pytest.mark.parametrize("token", ["x y", " x", "x\t", "x\ny", "x\u00a0y"])
    def test_tokens_with_whitespace_refused(self, tmp_path, token):
        # scoring joins a bigram's tokens with a space: ("x y", "z") would merge with ("x", "y z")
        record = CaseRecord(["fieber", token], TELECARE, 30, "male")
        with pytest.raises(SpecValidationError, match="without whitespace"):
            save_corpus(Corpus([record]), tmp_path / "c.jsonl")
        path = tmp_path / "ext.jsonl"
        path.write_text(json.dumps({**vars(record), "tokens": ["fieber"]}) + "\n"
                        + json.dumps(vars(record)) + "\n")
        with pytest.raises(SpecValidationError, match="^line 2: .*without whitespace"):
            load_corpus(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens": [], "label": "telecare", "age": 1, "gender": "male"}\n')
        with pytest.raises(SpecValidationError):
            load_corpus(path)
        path.write_text("not json\n")
        with pytest.raises(SpecValidationError):
            load_corpus(path)
        path.write_text(
            '{"tokens": ["a"], "label": "er", "age": 1, "gender": "male"}\n'
        )
        with pytest.raises(SpecValidationError):
            load_corpus(path)


RECORD_TYPES = field_types(CaseRecord)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=6,
)


def oracle_decode(line_no, line):
    """A stripped corpus line as ``json.loads`` reads it, with the reader's message."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise SpecValidationError(f"line {line_no}: not valid JSON ({e})") from e


def oracle_parse(line_no, value):
    """A decoded line as ``config.check`` and ``_validate_record`` read it, with the reader's
    message."""
    try:
        rec = CaseRecord(**check(value, RECORD_TYPES, "record"))
        corpus_module._validate_record(rec)
    except TypeError as e:
        raise SpecValidationError(f"line {line_no}: missing field ({e})") from e
    except ConfigError as e:
        raise SpecValidationError(f"line {line_no}: {e}") from e
    return rec


def outcome(call):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as e:  # noqa: BLE001 - the comparison covers any error
        return type(e), str(e)


GOOD = {"age": 30, "gender": "male", "label": TELECARE, "planted_flags": [0],
        "tokens": ["fieber", "husten"]}
GOOD_LINE = json.dumps(GOOD, sort_keys=True, separators=(",", ":"))


DROP = object()


def _with(**changes):
    """GOOD as a line, with ``changes``; a key set to DROP is left out."""
    record = {**GOOD, **changes}
    return json.dumps({k: v for k, v in record.items() if v is not DROP})


# one line per rule of the reader
MALFORMED = {
    "json-open-brace": "{",
    "json-cut-in-key": '{"ag',
    "json-cut-after-key": '{"age"',
    "json-cut-after-colon": '{"age":',
    "json-missing-value": '{"age": , "gender": "male"}',
    "json-cut-in-tokens": GOOD_LINE[:-4],
    "json-cut-last-brace": GOOD_LINE[:-1],
    "json-single-quotes": "{'age': 30}",
    "json-bare-word": "not json",
    "json-trailing-comma": '{"age": 30,}',
    "json-bad-escape": '{"tokens": ["a\\q"]}',
    "json-raw-tab-in-string": '{"tokens": ["a\tb"]}',
    "json-lone-bracket": "]",
    "trailing-object": GOOD_LINE + " {}",
    "trailing-record": GOOD_LINE + ", " + GOOD_LINE,
    "trailing-bracket": GOOD_LINE + "]",
    "trailing-word": GOOD_LINE + "x",
    "trailing-number": "1 2",
    "non-object-list": "[1, 2]",
    "non-object-joined": GOOD_LINE + "], [" + GOOD_LINE,
    "non-object-string": '"telecare"',
    "non-object-number": "42",
    "non-object-null": "null",
    "non-object-true": "true",
    "age-bool": _with(age=True),
    "age-float": _with(age=30.0),
    "age-string": _with(age="30"),
    "age-null": _with(age=None),
    "age-nan": GOOD_LINE.replace('"age":30', '"age":NaN'),
    "tokens-string": _with(tokens="fieber"),
    "tokens-object": _with(tokens={"a": 1}),
    "tokens-null": _with(tokens=None),
    "token-int": _with(tokens=["fieber", 1]),
    "token-null": _with(tokens=["fieber", None]),
    "token-list": _with(tokens=[["fieber"]]),
    "token-space": _with(tokens=["fieber", "a b"]),
    "token-tab": _with(tokens=["x\t"]),
    "token-nbsp": _with(tokens=["x\u00a0y"]),
    "token-pad": _with(tokens=["fieber", PAD_TOKEN]),
    "token-unk": _with(tokens=[UNK_TOKEN]),
    "token-empty": _with(tokens=["fieber", ""]),
    "tokens-empty": _with(tokens=[], planted_flags=[]),
    "unknown-key": _with(note="x"),
    "unknown-key-and-wrong-type": _with(note="x", age="30"),
    "missing-tokens": _with(tokens=DROP, planted_flags=[]),
    "missing-label": _with(label=DROP),
    "missing-age": _with(age=DROP),
    "missing-gender": _with(gender=DROP),
    "missing-two": _with(age=DROP, gender=DROP),
    "missing-and-wrong-type": _with(label=DROP, age="30"),
    "label-unknown": _with(label="er"),
    "label-int": _with(label=1),
    "gender-unknown": _with(gender="other"),
    "gender-null": _with(gender=None),
    "age-negative": _with(age=-1),
    "age-over": _with(age=MAX_AGE + 1),
    "age-huge": _with(age=10**30),
    "flag-out-of-range": _with(planted_flags=[2]),
    "flag-negative": _with(planted_flags=[-1]),
    "flag-bool": _with(planted_flags=[True]),
    "flag-float": _with(planted_flags=[0.0]),
    "flag-string": _with(planted_flags=["0"]),
    "flags-int": _with(planted_flags=0),
    "flags-string": _with(planted_flags="0"),
}
VALID = {
    "valid": GOOD_LINE,
    "valid-spaced": json.dumps(GOOD),
    "valid-without-flags": _with(planted_flags=DROP),
    "valid-escapes": _with(tokens=["fiéber", "☃"]).replace("\\u00e9", "\\u00E9"),
    "valid-age-bounds": _with(age=MAX_AGE),
}


class TestRecordCheck:
    """The reader's scanner decode and compiled check against ``json.loads``,
    ``config.check`` and ``_validate_record`` called directly."""

    @pytest.mark.parametrize("line", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_line_message_as_generic_path(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_text(GOOD_LINE + "\n" + line + "\n" + GOOD_LINE + "\n", encoding="utf-8")
        expected = outcome(lambda: oracle_parse(2, oracle_decode(2, line)))
        assert expected[0] is SpecValidationError  # the table holds refused lines only
        assert outcome(lambda: CorpusFile(path).records()) == expected
        assert outcome(lambda: CorpusFile(path).records([1])) == expected

    @pytest.mark.parametrize("line", VALID.values(), ids=VALID.keys())
    def test_valid_line_reads_as_generic_path(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert CorpusFile(path).records() == [oracle_parse(1, oracle_decode(1, line))]

    @given(value=st.one_of(
        st.fixed_dictionaries({}, optional={
            "tokens": st.lists(st.sampled_from(["a", "b", PAD_TOKEN, "", "a b"]) | JSON_VALUES,
                               max_size=4) | JSON_VALUES,
            "label": st.sampled_from(LABELS + ("er",)) | JSON_VALUES,
            "age": st.integers(-2, MAX_AGE + 2) | JSON_VALUES,
            "gender": st.sampled_from(GENDERS + ("x",)) | JSON_VALUES,
            "planted_flags": st.lists(st.integers(-1, 4) | JSON_VALUES, max_size=3) | JSON_VALUES,
            "note": JSON_VALUES}),
        JSON_VALUES))
    @settings(max_examples=400, deadline=None)
    def test_compiled_check_accepts_what_check_accepts(self, value):
        value = json.loads(json.dumps(value))  # as a line decodes
        try:
            check(value, RECORD_TYPES, "record")
            accepted = True
        except ConfigError:
            accepted = False
        assert exact_check(RECORD_TYPES)(value) is accepted
        assert corpus_module._exact_record(value) is accepted
        assert (outcome(lambda: corpus_module._parse_record(3, value))
                == outcome(lambda: oracle_parse(3, value)))

    @pytest.mark.parametrize("changes", [
        {"age": True}, {"age": 1.5}, {"tokens": "fever"}, {"tokens": ["a", 2]},
        {"tokens": []}, {"tokens": ["a b"]}, {"tokens": [PAD_TOKEN]}, {"label": "er"},
        {"gender": None}, {"age": -1}, {"planted_flags": [5]}, {"planted_flags": [False]},
    ], ids=repr)
    def test_bad_record_not_saved_with_generic_message(self, tmp_path, changes):
        record = CaseRecord(**{**GOOD, **changes})

        def generic():
            check(vars(record), RECORD_TYPES, "record")
            corpus_module._validate_record(record)

        expected = outcome(generic)
        assert expected[0] is SpecValidationError
        assert outcome(lambda: save_corpus(Corpus([record]), tmp_path / "c.jsonl")) == expected

    def test_saved_bytes_as_generic_path(self, tmp_path):
        class Token(str):
            pass

        records = [CaseRecord(**GOOD), CaseRecord(("a", "b"), URGENT, 3, "female", (1,)),
                   CaseRecord([Token("a")], TELECARE, 0, "male"),
                   CaseRecord(["aé", "☃"], GENERAL_PRACTICE, MAX_AGE, "female")]
        path = tmp_path / "c.jsonl"
        save_corpus(Corpus(records), path)
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps(check(vars(r), RECORD_TYPES, "record"), sort_keys=True,
                       separators=(",", ":")) + "\n" for r in records)


def _corrupt_json(line):
    return line[:-1]


def _corrupt_field(key, value):
    def corrupt(line):
        record = json.loads(line)
        record[key] = value(record)
        if record[key] is None:
            del record[key]
        return json.dumps(record)
    return corrupt


CORRUPTIONS = {
    "bad-json": _corrupt_json,
    "wrong-typed": _corrupt_field("age", lambda r: str(r["age"])),
    "missing-field": _corrupt_field("label", lambda r: None),
    "unknown-label": _corrupt_field("label", lambda r: "er"),
    "flag-out-of-range": _corrupt_field("planted_flags", lambda r: [len(r["tokens"])]),
}
# lines that read as blank: str.strip() removes them, and none ends a line in text mode
BLANKS = ("", " ", "\t ", "\x0c", "\x1c", "\x85", "\u2028")


class TestSelectiveRead:
    """``CorpusFile.records`` on any index set agrees with ``load_corpus``."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_load_corpus(self, tmp_path, data):
        n = data.draw(st.integers(1, 8), label="n")
        corpus = generate_corpus(GeneratorSpec(), n, seed=data.draw(st.integers(0, 99)))
        newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="newline")
        lines, line_of = [], []
        for rec in corpus.records:
            lines += data.draw(st.lists(st.sampled_from(BLANKS), max_size=2))
            line_of.append(len(lines) + 1)
            lines.append(json.dumps(vars(rec), sort_keys=True))
        lines += data.draw(st.lists(st.sampled_from(BLANKS), max_size=2))
        bad = data.draw(st.integers(0, n - 1), label="bad")
        corrupt = CORRUPTIONS[data.draw(st.sampled_from(sorted(CORRUPTIONS)), label="how")]
        broken = lines.copy()
        broken[line_of[bad] - 1] = corrupt(lines[line_of[bad] - 1])
        clean_path, broken_path = tmp_path / "clean.jsonl", tmp_path / "broken.jsonl"
        clean_path.write_bytes(newline.join(lines).encode())
        broken_path.write_bytes(newline.join(broken).encode())

        full = load_corpus(clean_path).records
        assert full == corpus.records
        with pytest.raises(SpecValidationError) as whole:
            load_corpus(broken_path)
        assert str(whole.value).startswith(f"line {line_of[bad]}: ")

        picked = data.draw(st.lists(st.integers(0, n - 1), max_size=6), label="picked")
        others = [i for i in picked if i != bad]
        for path in (clean_path, broken_path):
            assert len(CorpusFile(path)) == n
            assert CorpusFile(path).records(others) == [full[i] for i in others]
        assert CorpusFile(clean_path).records(picked) == [full[i] for i in picked]
        for label in LABELS:
            assert CorpusFile(clean_path).records(picked, label) == [
                r for r in CorpusFile(clean_path).records(picked) if r.label == label]
        with_bad = others[: len(others) // 2] + [bad] + others[len(others) // 2 :]
        with pytest.raises(SpecValidationError) as part:
            CorpusFile(broken_path).records(with_bad)
        assert str(part.value) == str(whole.value)

    def test_one_class_read_checks_every_record_it_keeps(self, tmp_path):
        corpus = generate_corpus(GeneratorSpec(), 30, seed=2)
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        lines = path.read_text().splitlines()
        urgent = next(i for i, r in enumerate(corpus.records) if r.label == URGENT)
        other = next(i for i, r in enumerate(corpus.records) if r.label != URGENT)

        def read(i, edit, label=URGENT):
            """The class's records from the file with line i + 1 edited."""
            broken = lines.copy()
            broken[i] = edit(lines[i])
            path.write_text("\n".join(broken) + "\n")
            return CorpusFile(path).records(None, label)

        def field(key, value):
            return lambda line: json.dumps({**json.loads(line), key: value})

        with pytest.raises(SpecValidationError, match=f"^line {urgent + 1}: age must be"):
            read(urgent, field("age", -1))
        with pytest.raises(SpecValidationError, match=f"^line {other + 1}: not valid JSON"):
            read(other, lambda line: line[:-1])
        for value in ("[1, 2]", '"telecare"', "{}"):
            with pytest.raises(SpecValidationError, match=f"^line {other + 1}: "):
                read(other, lambda line: value)
        with pytest.raises(SpecValidationError, match=f"^line {other + 1}: unknown label 'er'"):
            read(other, field("label", "er"))
        # only an object labelled with another class goes unchecked
        wrong_typed = field("age", "old")
        assert read(other, wrong_typed) == [r for r in corpus.records if r.label == URGENT]
        with pytest.raises(SpecValidationError, match=f"^line {other + 1}: .*age"):
            read(other, wrong_typed, corpus.records[other].label)

    def test_non_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = json.dumps({"tokens": ["a"], "label": "telecare", "age": 1, "gender": "male"})
        path.write_bytes(record.encode() + b"\r\n\r" + b'{"tokens": ["\xe9"]}\n')
        with pytest.raises(SpecValidationError, match=r"^line 3: not UTF-8 text"):
            CorpusFile(path)

    def test_unknown_class_refused(self, tmp_path):
        # every record is of a class other than "er", so none would be read
        path = tmp_path / "c.jsonl"
        save_corpus(generate_corpus(GeneratorSpec(), 5, seed=1), path)
        for label in ("er", "Telecare", ""):
            with pytest.raises(ConfigError, match=f"^unknown class {label!r}$"):
                CorpusFile(path).records(None, label)
            with pytest.raises(ConfigError, match=f"^unknown class {label!r}$"):
                CorpusFile(path).records([0, 1], label)

    def test_index_out_of_range_refused(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(generate_corpus(GeneratorSpec(), 3, seed=1), path)
        for indices in ([3], [-1]):
            with pytest.raises(SpecValidationError, match="out of range for 3 records"):
                CorpusFile(path).records(indices)

    def test_hash_is_of_the_bytes_read(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(generate_corpus(GeneratorSpec(), 3, seed=1), path)
        assert CorpusFile(path).sha256 == file_sha256(path)
