"""Tests for corpus generation, tokenization, vocabulary, and splits."""

import collections
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triagenet.corpus import (
    GENERAL_PRACTICE,
    LABELS,
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
    encode,
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
