"""End-to-end tests for the command-line pipeline."""

import hashlib
import json
import re
import shutil
from collections import Counter
from html.parser import HTMLParser
from pathlib import Path

import pytest

from triagenet import cli as cli_module
from triagenet import corpus as corpus_module
from triagenet import explain, model
from triagenet.cli import (
    DEFAULT_CONFIG,
    Run,
    _load_trained,
    _report_truncation,
    build_parser,
    main,
    resolve_config,
    write_json,
)
from triagenet.corpus import (
    URGENT,
    GeneratorSpec,
    SpecValidationError,
    build_vocab,
    encode_corpus,
    file_sha256,
    generate_corpus,
    load_corpus,
    split,
)
from triagenet.embedding import load_table
from triagenet.model import ModelConfig, init_params, load_model, save_model
from triagenet.training import HyperParams, derive_seed, train

CONFIG = {
    "seed": 11,
    "cases": 200,
    "model": {
        "embedding_dim": 8,
        "filters": 6,
        "attention_size": 5,
        "mlp_layers": [10],
        "widths": [1, 2],
        "dropout": 0.1,
    },
    "training": {"epochs": 2, "lr": 0.005, "batch_size": 32},
    "embedding": {"iters": 1},
}


def run(*argv):
    return main([str(a) for a in argv])


def make_workspace(root, name):
    out = root / name
    out.mkdir()
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG))
    return out, config


def run_pipeline(out, config):
    assert run("gen-data", "--config", config, "--out-dir", out) == 0
    assert run("pretrain-embeddings", "--config", config, "--out-dir", out) == 0
    assert (
        run("train", "--config", config, "--out-dir", out,
            "--embeddings", out / "embeddings.bin") == 0
    )
    assert run("evaluate", "--config", config, "--out-dir", out) == 0


def with_header(source, target, edit):
    """Copy an artifact with its JSON header line rewritten by ``edit``."""
    header, newline, blob = source.read_bytes().partition(b"\n")
    target.write_bytes(edit(header) + newline + blob)
    return target


def drop_checksum(header):
    fields = json.loads(header)
    del fields["checksum"]
    return json.dumps(fields, sort_keys=True).encode()


MALFORMED_HEADERS = {
    "not-utf8": lambda header: header.replace(b'"format"', b'"\xffformat"'),
    "not-an-object": lambda header: b"[" + header + b"]",
    "no-checksum": drop_checksum,
}


def edit_config(key, value):
    def edit(header):
        fields = json.loads(header)
        fields["config"][key] = value
        return json.dumps(fields, sort_keys=True).encode()
    return edit


def edit_field(key, value):
    def edit(header):
        return json.dumps({**json.loads(header), key: value}, sort_keys=True).encode()
    return edit


def edit_record(key, value):
    def edit(header):
        fields = json.loads(header)
        fields["data"][key] = value
        return json.dumps(fields, sort_keys=True).encode()
    return edit


def edit_first_shape(shape):
    def edit(header):
        fields = json.loads(header)
        fields["arrays"][0][1] = shape
        return json.dumps(fields, sort_keys=True).encode()
    return edit


WRONG_TYPED_MODEL_HEADERS = {
    "max_len-string": edit_config("max_len", "16"),
    "arrays-flat": edit_field("arrays", [1, 2]),
    "arrays-bool-dim": edit_first_shape([True, 8]),
    "widths-string": edit_config("widths", "12"),
    "filters-float": edit_config("filters", 6.0),
    "data-list": edit_field("data", []),
    "tokens-string": edit_record("tokens", "abc"),
    "test-float": edit_record("test", [3.0]),
    "tokens-null": edit_record("tokens", None),
}


def as_version_1(header):
    """A header as the first file format wrote it: corpus hash, no data record."""
    fields = json.loads(header)
    fields["corpus_hash"] = fields.pop("data")["corpus_sha256"]
    return json.dumps({**fields, "version": 1}, sort_keys=True).encode()


def as_version_2(header):
    """A header as the second file format wrote it: split ratios and seed, no index lists."""
    fields = json.loads(header)
    data = fields["data"]
    fields["data"] = {"corpus_sha256": data["corpus_sha256"], "split": [0.9, 0.05, 0.05],
                      "split_seed": 3, "tokens": data["tokens"]}
    return json.dumps({**fields, "version": 2}, sort_keys=True).encode()


def as_version_3(header):
    """A model header as the third format wrote it: the config names ``n_classes``."""
    fields = json.loads(header)
    fields["config"]["n_classes"] = 3
    return json.dumps({**fields, "version": 3}, sort_keys=True).encode()


def as_version_4_model(header):
    """A model header as the fourth format wrote it: tensor shapes under ``params``."""
    fields = json.loads(header)
    fields["params"] = fields.pop("arrays")
    return json.dumps({**fields, "version": 4}, sort_keys=True).encode()


def as_version_3_embedding(header):
    """An embedding header as the third format wrote it: ``vocab_size`` and ``dim`` keys."""
    fields = json.loads(header)
    (_, (vocab_size, dim)), = fields.pop("arrays")
    fields.update(vocab_size=vocab_size, dim=dim, version=3)
    return json.dumps(fields, sort_keys=True).encode()


# a corpus whose small lexicon lets two split seeds build the same vocabulary
SMALL_LEXICON = {"cases": 600, "generator": {"n_red_flags": 2, "n_red_pairs": 1, "n_moderate": 3,
                                             "n_benign": 4, "n_filler": 2}}


# command, config file, grid file (or None), and what the one error line must say
MALFORMED_CONFIGS = {
    "cases-string": ("gen-data", {"cases": "30"}, None, "cases must"),
    "n_red_flags-string": ("gen-data", {"generator": {"n_red_flags": "3"}}, None, "flags must"),
    "proportions-number": ("gen-data", {"generator": {"proportions": 5}}, None, "proportions must"),
    "min_count-string": ("pretrain-embeddings", {"min_count": "1"}, None, "min_count must"),
    "iters-string": ("pretrain-embeddings", {"embedding": {"iters": "1"}}, None, "iters must"),
    "split-string-ratio": ("pretrain-embeddings", {"split": [0.9, "a", 0.05]}, None, "split[1]"),
    "window-float": ("pretrain-embeddings", {"embedding": {"window": 2.5}}, None, "window must"),
    "epochs-string": ("train", {"training": {"epochs": "2"}}, None, "epochs must"),
    "epochs-float": ("train", {"training": {"epochs": 1.5}}, None, "epochs must"),
    "max_len-bool": ("train", {"model": {"max_len": True}}, None, "max_len must"),
    "vocab_size-set": ("train", {"model": {"vocab_size": 5}}, None, "['vocab_size']"),
    "n_classes-2": ("train", {"model": {"n_classes": 2}}, None, "['n_classes']"),
    "n_classes-4": ("train", {"model": {"n_classes": 4}}, None, "['n_classes']"),
    "grid-not-lists": ("grid-search", CONFIG, {"lr": 0.01}, "grid must"),
    "grid-string-lr": ("grid-search", CONFIG, {"lr": ["x"]}, "lr must"),
    "grid-float-batch": ("grid-search", CONFIG, {"batch_size": [1.5]}, "batch_size must"),
    "grid-empty-list": ("grid-search", CONFIG, {"lr": []}, "grid must"),
}


# a section value out of range, and what the one error line must say
OUT_OF_RANGE_SECTIONS = {
    "generator": ({"generator": {"n_red_flags": 0}}, "n_red_flags must be >= 1"),
    "model-max_len": ({"model": {"max_len": 0}}, "max_len must be >= 1"),
    "model-widths": ({"model": {"widths": []}}, "widths must be nonempty"),
    "training": ({"training": {"epochs": 0}}, "epochs and batch_size >= 1"),
    "embedding-window": ({"embedding": {"window": 0}}, "embedding.window"),
    "embedding-negatives": ({"embedding": {"negatives": 0}}, "embedding.negatives >= 1"),
    "embedding-lr": ({"embedding": {"lr": -0.1}}, "embedding.lr must be >= 0"),
}


def train_split(out, seed):
    """The records of the train split ``seed`` cuts from the corpus in ``out``."""
    corpus = load_corpus(out / "corpus.jsonl")
    tr, _, _ = split(corpus.records, (0.9, 0.05, 0.05), seed=derive_seed(seed, "split"))
    return [corpus.records[i] for i in tr]


@pytest.fixture
def corpus_reads(monkeypatch):
    """Paths the corpus module opens, and the line numbers of the records it parses."""
    opened, parsed = [], []
    parse = corpus_module._parse_record

    def counting_open(path, *args, **kwargs):
        opened.append(Path(path))
        return open(path, *args, **kwargs)

    def counting_parse(line_no, line):
        parsed.append(line_no)
        return parse(line_no, line)

    monkeypatch.setattr(corpus_module, "open", counting_open, raising=False)
    monkeypatch.setattr(corpus_module, "_parse_record", counting_parse)
    return opened, parsed


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out, config = make_workspace(tmp_path_factory.mktemp("cli"), "run")
    run_pipeline(out, config)
    return out, config


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        out, _ = pipeline
        for name in ("corpus.jsonl", "embeddings.bin", "model.bin", "vocab.json",
                     "metrics.json"):
            assert (out / name).exists(), name

    def test_manifest_records_config_seed_and_hashes(self, pipeline):
        out, config = pipeline
        manifest = json.loads((out / "manifest_train.json").read_text())
        assert manifest["tool"] == "triagenet"
        assert manifest["command"] == "train"
        assert manifest["root_seed"] == 11
        assert manifest["config"]["training"]["epochs"] == 2
        assert manifest["inputs"]["corpus"]["sha256"] == file_sha256(out / "corpus.jsonl")
        assert manifest["outputs"]["model"]["sha256"] == file_sha256(out / "model.bin")
        assert len(manifest["arguments"]["epochs"]) == 2

    def test_metrics_json_shape(self, pipeline):
        out, _ = pipeline
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["per_class"]) == {"urgent_care", "general_practice", "telecare"}
        assert metrics["retained_fraction"] == 1.0
        assert metrics["truncated_cases"] == 0

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        first, _ = pipeline
        out, config = make_workspace(tmp_path, "rerun")
        run_pipeline(out, config)
        for name in ("corpus.jsonl", "embeddings.bin", "model.bin", "vocab.json",
                     "metrics.json"):
            assert (out / name).read_bytes() == (first / name).read_bytes(), name

    def test_evaluate_threshold_reports_discard(self, pipeline, capsys):
        out, config = pipeline
        code = run("evaluate", "--config", config, "--out-dir", out,
                   "--confidence-threshold", "0.34", "--out", out / "metrics_t.json")
        assert code == 0
        captured = capsys.readouterr().out
        assert "discarded" in captured
        metrics = json.loads((out / "metrics_t.json").read_text())
        assert 0.0 < metrics["retained_fraction"] <= 1.0


# per run: the subcommand and its flags, then the files it reads and the files it
# writes, by manifest name; every run also reads config.json
TRAINED = {"corpus": "corpus.jsonl", "model": "model.bin"}
MANIFEST_RUNS = {
    "gen-data": ("gen-data", (), {}, {"corpus": "corpus.jsonl"}),
    "pretrain-embeddings": ("pretrain-embeddings", (), {"corpus": "corpus.jsonl"},
                            {"embeddings": "embeddings.bin"}),
    "train": ("train", ("--embeddings", "embeddings.bin"),
              {"corpus": "corpus.jsonl", "embeddings": "embeddings.bin"},
              {"model": "model.bin", "vocab": "vocab.json"}),
    "evaluate": ("evaluate", ("--split", "val"), TRAINED,
                 {"metrics": "metrics.json"}),
    "grid-search": ("grid-search", ("--grid", "grid.json"),
                    {"corpus": "corpus.jsonl", "grid": "grid.json"},
                    {"results": "grid_search.json"}),
    "score-symptoms": ("score-symptoms", ("--gram", "2"), TRAINED,
                       {"scores": "scores_urgent_care_2gram.json"}),
    "pairs": ("pairs", (), TRAINED, {"pairs": "pairs_urgent_care.json"}),
    "drop-experiment": ("drop-experiment", (), TRAINED, {"results": "drop_experiment.json"}),
    "explain-html": ("explain", ("--cases", "0,3"), TRAINED, {"heatmaps": "heatmaps.html"}),
    "explain-ansi": ("explain", ("--cases", "0,3", "--format", "ansi"), TRAINED, {}),
}


class TestManifests:
    @pytest.mark.parametrize("name", MANIFEST_RUNS)
    def test_manifest_lists_exactly_the_files_read_and_written(self, pipeline, tmp_path,
                                                              capsys, name):
        out, config = pipeline
        command, flags, reads, writes = MANIFEST_RUNS[name]
        reads = {**reads, "config": "config.json"}
        for file in reads.values():
            if file == "grid.json":
                (tmp_path / file).write_text(json.dumps({"lr": [0.01], "epochs": [1]}))
            else:
                shutil.copy(out / file, tmp_path / file)
        before = {p.name: file_sha256(p) for p in tmp_path.iterdir()}
        argv = [tmp_path / f if f in reads.values() else f for f in flags]
        assert run(command, "--config", tmp_path / "config.json", "--out-dir", tmp_path,
                   *argv) == 0
        capsys.readouterr()
        manifest_name = f"manifest_{command.replace('-', '_')}.json"
        after = {p.name: file_sha256(p) for p in tmp_path.iterdir()}
        assert {f for f in after if before.get(f) != after[f]} == {*writes.values(),
                                                                   manifest_name}
        manifest = json.loads((tmp_path / manifest_name).read_text())
        assert manifest["command"] == command
        for listed, expected in ((manifest["inputs"], reads), (manifest["outputs"], writes)):
            assert {key: Path(entry["path"]) for key, entry in listed.items()} == {
                key: tmp_path / file for key, file in expected.items()}
            for entry in listed.values():
                assert entry["sha256"] == file_sha256(entry["path"])
        corpus = {**manifest["inputs"], **manifest["outputs"]}["corpus"]
        assert corpus["sha256"] == load_model(out / "model.bin").data.corpus_sha256

    @pytest.mark.parametrize("command", [
        ("evaluate",), ("score-symptoms",), ("pairs",), ("drop-experiment",),
        ("explain", "--cases", "0", "--format", "ansi"),
    ], ids=lambda c: c[0])
    def test_model_settings_are_the_model_files(self, pipeline, tmp_path, capsys, command):
        out, _ = pipeline
        config = tmp_path / "kim.json"
        config.write_text(json.dumps({**CONFIG, "model": {"arch": "kimcnn", "filters": 99}}))
        assert run(*command, "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl", "--model", out / "model.bin") == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / f"manifest_{command[0].replace('-', '_')}.json")
                              .read_text())
        trained = json.loads((out / "manifest_train.json").read_text())["config"]["model"]
        assert manifest["config"]["model"] == trained


class TestScoringCommands:
    def test_score_symptoms_writes_sorted_table(self, pipeline, capsys):
        out, config = pipeline
        assert run("score-symptoms", "--config", config, "--out-dir", out,
                   "--class", "urgent_care", "--gram", "1", "--top", "5") == 0
        rows = json.loads((out / "scores_urgent_care_1gram.json").read_text())
        assert rows and all(0.0 <= r["score"] <= 1.0 for r in rows)
        assert [r["score"] for r in rows] == sorted((r["score"] for r in rows), reverse=True)
        assert all(r["class"] == "urgent_care" for r in rows)
        assert "feature" in capsys.readouterr().out

    def test_pairs_command(self, pipeline):
        out, config = pipeline
        assert run("pairs", "--config", config, "--out-dir", out) == 0
        rows = json.loads((out / "pairs_urgent_care.json").read_text())
        assert rows
        for r in rows:
            assert r["margin"] == pytest.approx(
                r["pair_score"] - max(r["first_score"], r["second_score"])
            )

    @staticmethod
    def count_model_work(monkeypatch):
        """Rows through ``forward_graph`` and ``Prediction``s built, as two growing lists."""
        rows, predictions = [], []

        def counting_forward_graph(params, ids, demographics, **kwargs):
            rows.append(len(ids))
            return forward_graph(params, ids, demographics, **kwargs)

        def counting_prediction(**fields):
            predictions.append(1)
            return prediction(**fields)

        forward_graph, prediction = model.forward_graph, model.Prediction
        monkeypatch.setattr(model, "forward_graph", counting_forward_graph)
        monkeypatch.setattr(model, "Prediction", counting_prediction)
        return rows, predictions

    def check_one_pass_over_the_class(self, pipeline, monkeypatch, *command):
        out, config = pipeline
        rows, predictions = self.count_model_work(monkeypatch)
        assert run(*command, "--config", config, "--out-dir", out) == 0
        urgent = sum(r.label == URGENT for r in train_split(out, CONFIG["seed"]))
        assert sum(rows) == urgent
        assert predictions == []

    def test_pairs_runs_the_model_once_over_the_class(self, pipeline, monkeypatch):
        self.check_one_pass_over_the_class(pipeline, monkeypatch, "pairs")

    def test_score_symptoms_runs_the_model_once_over_the_class(self, pipeline, monkeypatch):
        self.check_one_pass_over_the_class(pipeline, monkeypatch, "score-symptoms", "--gram", "2")

    def test_drop_experiment_rows(self, pipeline):
        out, config = pipeline
        assert run("drop-experiment", "--config", config, "--out-dir", out,
                   "--drops", "2") == 0
        rows = json.loads((out / "drop_experiment.json").read_text())
        assert [r["label"] for r in rows] == [
            "Baseline", "Random Drop", "Frequency Drop", "Attention Drop",
            "2 Random Drops", "2 Frequency Drops", "2 Attention Drops",
        ]

    def test_drop_experiment_runs_the_model_once_per_condition(self, pipeline, monkeypatch):
        out, config = pipeline
        rows, predictions = self.count_model_work(monkeypatch)
        assert run("drop-experiment", "--config", config, "--out-dir", out,
                   "--drops", "2") == 0
        records = load_corpus(out / "corpus.jsonl").records
        _, _, te = split(records, (0.9, 0.05, 0.05), seed=derive_seed(CONFIG["seed"], "split"))
        urgent = sum(r.label == URGENT for r in train_split(out, CONFIG["seed"]))
        # the baseline and 3 conditions per drop count over the test split, then
        # one scoring pass over the class's training cases
        assert sum(rows) == (1 + 3 * 2) * len(te) + urgent
        assert predictions == []

    def test_grid_search(self, pipeline):
        out, config = pipeline
        grid = out / "grid.json"
        grid.write_text(json.dumps({"lr": [0.002, 0.01], "epochs": [1]}))
        assert run("grid-search", "--config", config, "--out-dir", out,
                   "--grid", grid) == 0
        rows = json.loads((out / "grid_search.json").read_text())
        assert len(rows) == 2
        assert rows[0]["val_macro_f1"] >= rows[1]["val_macro_f1"]

    def test_grid_search_notes_truncation_like_train(self, tmp_path, capsys):
        out, config = make_workspace(tmp_path, "long")
        grid = out / "grid.json"
        grid.write_text(json.dumps({"epochs": [1]}))
        assert run("gen-data", "--config", config, "--out-dir", out, "--mode", "fulltext") == 0
        capsys.readouterr()
        notes = []
        for command in (("train",), ("grid-search", "--grid", grid)):
            assert run(*command, "--config", config, "--out-dir", out) == 0
            notes.append(capsys.readouterr().err)
        assert notes[0].startswith("note: ") and "train and val documents" in notes[0]
        assert notes[1] == notes[0]

    def test_explain_commands_note_truncation(self, tmp_path, capsys):
        out, config = make_workspace(tmp_path, "long")
        config.write_text(json.dumps({
            **CONFIG, "model": {**CONFIG["model"], "max_len": 16},
            "training": {**CONFIG["training"], "epochs": 1},
        }))
        assert run("gen-data", "--config", config, "--out-dir", out, "--mode", "fulltext") == 0
        assert run("train", "--config", config, "--out-dir", out) == 0
        capsys.readouterr()
        for command, cut in ((("score-symptoms",), ["train urgent_care"]),
                             (("pairs", "--split", "test"), ["test urgent_care"]),
                             (("drop-experiment",), ["train urgent_care", "test"]),
                             (("explain", "--cases", "0,1,2,3,4,5,6,7,8,9"), ["explained"])):
            assert run(*command, "--config", config, "--out-dir", out) == 0
            notes = capsys.readouterr().err.splitlines()
            assert [re.match(r"note: \d+ of \d+ (.+) documents are longer than max_len 16; ",
                             note).group(1) for note in notes] == cut, command


def indented_json(obj) -> bytes:
    """What ``write_json`` writes: the standard library's indented encoding."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def rows(n, **extra):
    return [{"feature": f"tok{i}", "score": i / 7, "occurrences": i, "flag": i % 2 == 0,
             "note": None, **extra} for i in range(n)]


ODD_STRINGS = ["},\n    {", "},\n      {", '"quoted"', "back\\slash\\", "caf\u00e9 \u2192 \U0001f600",
               "tab\tand\rreturn", ""]
ODD_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300, 0.1]


class TestWriteJson:
    """``write_json`` writes what ``json.dump(obj, indent=2, sort_keys=True)`` does, and a newline."""

    def test_every_file_of_a_tour_run(self, tmp_path, monkeypatch):
        written = []

        def recording_write_json(obj, path):
            write_json(obj, path)
            written.append((obj, Path(path), Path(path).read_bytes()))

        monkeypatch.setattr(cli_module, "write_json", recording_write_json)
        out, config = make_workspace(tmp_path, "tour")
        run_pipeline(out, config)
        for command in (("score-symptoms", "--gram", "1"), ("pairs",),
                        ("drop-experiment", "--drops", "2"),
                        ("explain", "--cases", "0,2", "--format", "ansi"),
                        ("explain", "--cases", "0,2")):
            assert run(*command, "--config", config, "--out-dir", out) == 0
        names = {path.name for _, path, _ in written}
        assert {"metrics.json", "scores_urgent_care_1gram.json", "pairs_urgent_care.json",
                "drop_experiment.json", "manifest_explain.json"} <= names
        assert len(written) == 13 and len(names) == 12  # explain runs twice
        for obj, path, text in written:
            assert text == indented_json(obj), path.name

    @pytest.mark.parametrize("n", [1, 256, 257, 600])
    def test_lists_of_flat_dicts(self, tmp_path, n):
        for obj in (rows(n), tuple(rows(n)), {"outer": {"rows": rows(n)}, "z": 1}, [[rows(n)]]):
            write_json(obj, tmp_path / "rows.json")
            assert (tmp_path / "rows.json").read_bytes() == indented_json(obj)

    def test_odd_strings_and_floats(self, tmp_path):
        values = ODD_STRINGS + ODD_FLOATS
        objs = [
            values,
            {s: v for s, v in zip(ODD_STRINGS, ODD_FLOATS)},
            [{"text": s, "value": v, s: s} for s in ODD_STRINGS for v in ODD_FLOATS],
            {"nested": [{"rows": [{"k": s}]} for s in ODD_STRINGS], "floats": ODD_FLOATS},
        ]
        for obj in objs:
            write_json(obj, tmp_path / "odd.json")
            assert (tmp_path / "odd.json").read_bytes() == indented_json(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, (), 0, -3, 2.5, "text", None, True, False,
        [[], {}, ()], {"a": [], "b": {}, "c": ()},
        {"t": (1, 2.0, "x"), "b": [True, False, None], "n": None, "i": 7},
        [{"a": 1}, {}, {"b": 2}],  # an empty row: not a list of flat dicts
        [{"a": 1}, {"b": [1, 2]}],  # a nested value in one row
        [{"a": (1, 2)}],
        [{2: "b", 1: True, 0.5: None}, {None: 1.5}, {False: "f"}],  # keys the encoder converts
        [{"a": 1}, 2, "three"],
        {1: "a", 3: {"x": []}},
        {"x": {2.5: [1], 0.5: {"y": ()}}},
        {"x": {True: [1], False: {"y": None}}},
        {"x": {None: [1]}},
        [[[1, [2, [3, []]]]]],
    ], ids=lambda obj: repr(obj)[:40])
    def test_scalars_and_containers(self, tmp_path, obj):
        write_json(obj, tmp_path / "obj.json")
        assert (tmp_path / "obj.json").read_bytes() == indented_json(obj)


class _Balance(HTMLParser):
    def __init__(self):
        super().__init__()
        self.depth = 0

    def handle_starttag(self, tag, attrs):
        if tag not in ("meta", "br"):
            self.depth += 1

    def handle_endtag(self, tag):
        self.depth -= 1


class TestExplainCommand:
    def test_html_heatmaps(self, pipeline):
        out, config = pipeline
        assert run("explain", "--config", config, "--out-dir", out, "--cases", "0,3") == 0
        doc = (out / "heatmaps.html").read_text()
        parser = _Balance()
        parser.feed(doc)
        parser.close()
        assert parser.depth == 0
        assert doc.count("<h3>") == 2

    def test_ansi_heatmaps_to_stdout(self, pipeline, capsys):
        out, config = pipeline
        assert run("explain", "--config", config, "--out-dir", out,
                   "--cases", "1", "--format", "ansi") == 0
        assert "\x1b[48;2;" in capsys.readouterr().out

    def test_ansi_refuses_out_before_reading_anything(self, pipeline, tmp_path, capsys):
        _, config = pipeline
        html_out = tmp_path / "heatmaps.html"
        # neither input exists: reading either would give another error
        assert run("explain", "--config", config, "--out-dir", tmp_path, "--cases", "0",
                   "--corpus", tmp_path / "none.jsonl", "--model", tmp_path / "none.bin",
                   "--format", "ansi", "--out", html_out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out") and err.count("\n") == 1
        assert not html_out.exists()

    def test_bad_case_ids(self, pipeline, capsys):
        out, config = pipeline
        assert run("explain", "--config", config, "--out-dir", out, "--cases", "0,99999") == 1
        assert run("explain", "--config", config, "--out-dir", out, "--cases", "zero") == 1
        capsys.readouterr()


class TestErrorPaths:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            run("frobnicate")
        assert e.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            run("gen-data", "--nonsense", "1")
        assert e.value.code == 2

    def test_abbreviated_flag_is_usage_error(self, tmp_path):
        # train has no --out; it must not be read as --out-dir
        with pytest.raises(SystemExit) as e:
            run("train", "--out", tmp_path / "model.bin")
        assert e.value.code == 2

    def test_missing_required_flag_is_usage_error(self, pipeline):
        out, config = pipeline
        with pytest.raises(SystemExit) as e:
            run("grid-search", "--config", config, "--out-dir", out)
        assert e.value.code == 2

    @pytest.mark.parametrize("command", ["score-symptoms", "pairs"])
    @pytest.mark.parametrize("top", ["-3", "0"])
    def test_top_must_be_positive(self, pipeline, tmp_path, capsys, command, top):
        out, config = pipeline
        with pytest.raises(SystemExit) as e:
            run(command, "--config", config, "--out-dir", tmp_path, "--corpus",
                out / "corpus.jsonl", "--model", out / "model.bin", "--top", top)
        assert e.value.code == 2
        assert f"--top: must be a positive integer, got '{top}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("train", "--corpus", "{dir}"),
        ("evaluate", "--corpus", "{out}/corpus.jsonl", "--model", "{dir}"),
        ("explain", "--corpus", "{out}/corpus.jsonl", "--model", "{out}/model.bin",
         "--cases", "0", "--out", "{dir}"),
    ], ids=["train-corpus", "evaluate-model", "explain-out"])
    def test_directory_for_a_file_is_validation_error(self, pipeline, tmp_path, capsys, argv):
        out, config = pipeline
        given = tmp_path / "a-directory"
        given.mkdir()
        argv = [a.format(out=out, dir=given) for a in argv]
        capsys.readouterr()
        assert run(*argv, "--config", config, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.rstrip().endswith(f": {given}")

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_failed_command_leaves_no_output_directory(self, tmp_path, capsys, command):
        out = tmp_path / "never_made"
        assert run(command, "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith("error: no such file or directory: ")
        assert not out.exists()

    def test_missing_corpus_is_validation_error(self, tmp_path, capsys):
        assert run("train", "--out-dir", tmp_path) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_config_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert run("gen-data", "--config", config, "--out-dir", tmp_path) == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"modle": {}}))
        assert run("gen-data", "--config", config, "--out-dir", tmp_path) == 1
        assert "unknown config sections" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, settings, grid, says", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys()
    )
    def test_malformed_config_value_is_validation_error(
        self, pipeline, tmp_path, capsys, command, settings, grid, says
    ):
        out, _ = pipeline
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        args = [command, "--config", config, "--out-dir", tmp_path]
        if command != "gen-data":
            args += ["--corpus", out / "corpus.jsonl"]
        if grid is not None:
            (tmp_path / "grid.json").write_text(json.dumps(grid))
            args += ["--grid", tmp_path / "grid.json"]
        capsys.readouterr()
        assert run(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err
        assert not (tmp_path / "model.bin").exists()

    def test_corpus_not_utf8_names_the_line(self, pipeline, tmp_path, capsys):
        out, config = pipeline
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"\xff" + (out / "corpus.jsonl").read_bytes())
        capsys.readouterr()
        assert run("evaluate", "--config", config, "--out-dir", tmp_path,
                   "--corpus", corpus, "--model", out / "model.bin") == 1
        assert capsys.readouterr().err == "error: line 1: not UTF-8 text (invalid start byte)\n"

    def test_config_not_utf8_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff" + json.dumps(CONFIG).encode())
        capsys.readouterr()
        assert run("gen-data", "--config", config, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert err == f"error: {config} is not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_grid_not_utf8_is_validation_error(self, pipeline, tmp_path, capsys):
        out, config = pipeline
        grid = tmp_path / "grid.json"
        grid.write_bytes(b"\xff" + json.dumps({"lr": [0.01]}).encode())
        capsys.readouterr()
        assert run("grid-search", "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl", "--grid", grid) == 1
        assert capsys.readouterr().err == f"error: {grid} is not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "grid_search.json").exists()

    def test_corrupt_model_is_validation_error(self, pipeline, tmp_path, capsys):
        out, config = pipeline
        broken = tmp_path / "model.bin"
        data = (out / "model.bin").read_bytes()
        broken.write_bytes(data[:-9])
        assert run("evaluate", "--config", config, "--out-dir", out,
                   "--model", broken) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
    def test_malformed_model_header_is_validation_error(self, pipeline, tmp_path, capsys, edit):
        out, config = pipeline
        broken = with_header(out / "model.bin", tmp_path / "model.bin", edit)
        assert run("evaluate", "--config", config, "--out-dir", out, "--model", broken) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
    def test_malformed_embedding_header_is_validation_error(
        self, pipeline, tmp_path, capsys, edit
    ):
        out, config = pipeline
        broken = with_header(out / "embeddings.bin", tmp_path / "embeddings.bin", edit)
        assert run("train", "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl", "--embeddings", broken) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize(
        "edit", WRONG_TYPED_MODEL_HEADERS.values(), ids=WRONG_TYPED_MODEL_HEADERS.keys()
    )
    def test_wrong_typed_model_header_is_validation_error(
        self, pipeline, tmp_path, capsys, edit
    ):
        out, config = pipeline
        broken = with_header(out / "model.bin", tmp_path / "model.bin", edit)
        assert run("evaluate", "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl", "--model", broken) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize(
        "settings, says", OUT_OF_RANGE_SECTIONS.values(), ids=OUT_OF_RANGE_SECTIONS.keys()
    )
    def test_every_section_is_range_checked_by_every_command(
        self, pipeline, tmp_path, capsys, command, settings, says
    ):
        out, _ = pipeline
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        inputs = ["--corpus", out / "corpus.jsonl"] if command == "train" else []
        capsys.readouterr()
        assert run(command, "--config", config, "--out-dir", tmp_path, *inputs) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_truncation_is_reported(self, pipeline, tmp_path, capsys):
        out, _ = pipeline
        config = tmp_path / "short.json"
        config.write_text(json.dumps({
            **CONFIG, "model": {**CONFIG["model"], "max_len": 6},
            "training": {**CONFIG["training"], "epochs": 1},
        }))
        args = ("--config", config, "--out-dir", tmp_path, "--corpus", out / "corpus.jsonl")
        capsys.readouterr()
        assert run("train", *args) == 0
        err = capsys.readouterr().err
        assert err.startswith("note: ") and err.count("\n") == 1
        assert "train and val documents are longer than max_len 6" in err
        assert run("evaluate", *args) == 0
        err = capsys.readouterr().err
        assert err.startswith("note: ") and err.count("\n") == 1
        cut, total = map(int, re.match(r"note: (\d+) of (\d+) test documents", err).groups())
        assert 0 < cut <= total
        assert json.loads((tmp_path / "metrics.json").read_text())["truncated_cases"] == cut
        manifest = (tmp_path / "manifest_evaluate.json").read_text()
        assert "truncated" not in manifest

    def test_truncation_counts_a_half_cut_pair_as_lost(self, capsys):
        # a pair cut after its first member keeps a token that is harmless alone
        records = generate_corpus(GeneratorSpec(mode="fulltext"), 2000, seed=3).records
        flags = [r.planted_flags for r in records if r.planted_flags]
        assert any(min(f) < 16 <= max(f) for f in flags)
        lost = sum(1 for f in flags if not all(i < 16 for i in f))
        _report_truncation(records, 16, "fulltext")
        assert f"; {lost} of them lose a planted flag\n" in capsys.readouterr().err

    def test_stale_embeddings_rejected(self, pipeline, tmp_path, capsys):
        _, config = pipeline
        out, other_config = make_workspace(tmp_path, "other")
        assert run("gen-data", "--config", other_config, "--out-dir", out,
                   "--seed", "99") == 0
        assert run("pretrain-embeddings", "--config", other_config, "--out-dir", out,
                   "--seed", "99") == 0
        # regenerate the corpus with a different seed: embeddings now stale
        assert run("gen-data", "--config", other_config, "--out-dir", out,
                   "--seed", "100") == 0
        assert run("train", "--config", other_config, "--out-dir", out, "--seed", "100",
                   "--embeddings", out / "embeddings.bin") == 1
        assert "different corpus" in capsys.readouterr().err


class TestDataRecord:
    """Commands that read a model take its vocabulary and split from its file."""

    def test_downstream_seed_keeps_the_models_split(self, pipeline, tmp_path):
        out, config = pipeline
        # split seed 5 yields a train vocabulary of the same size with other ids
        trained, other = (build_vocab(train_split(out, s)) for s in (CONFIG["seed"], 5))
        assert len(trained) == len(other) and trained.id_to_token != other.id_to_token
        assert run("evaluate", "--config", config, "--out-dir", tmp_path, "--seed", 5,
                   "--corpus", out / "corpus.jsonl", "--model", out / "model.bin") == 0
        assert (tmp_path / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()

    def test_split_seed_with_the_same_vocabulary_scores_held_out_cases(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_LEXICON))
        common = ("--config", config, "--out-dir", tmp_path)
        assert run("gen-data", *common, "--seed", 1) == 0
        assert run("train", *common, "--seed", 2) == 0
        assert run("evaluate", *common, "--seed", 2, "--out", tmp_path / "seed2.json") == 0
        assert run("evaluate", *common, "--seed", 3, "--out", tmp_path / "seed3.json") == 0
        assert (tmp_path / "seed3.json").read_bytes() == (tmp_path / "seed2.json").read_bytes()

    def test_edited_corpus_refused(self, pipeline, tmp_path, capsys):
        out, config = pipeline
        lines = (out / "corpus.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        record["age"] = (record["age"] + 1) % 100
        lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        (tmp_path / "corpus.jsonl").write_text("".join(lines))
        capsys.readouterr()
        assert run("evaluate", "--config", config, "--out-dir", tmp_path,
                   "--model", out / "model.bin") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "different corpus file" in err
        assert not (tmp_path / "metrics.json").exists()

    def test_embeddings_from_another_split_seed_refused(self, pipeline, tmp_path, capsys):
        out, config = pipeline
        capsys.readouterr()
        assert run("train", "--config", config, "--out-dir", tmp_path, "--seed", 5,
                   "--corpus", out / "corpus.jsonl", "--embeddings", out / "embeddings.bin") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "different corpus, split or vocabulary" in err
        assert not (tmp_path / "model.bin").exists()

    def test_version_1_files_refused(self, pipeline, tmp_path, capsys):
        out, config = pipeline
        model = with_header(out / "model.bin", tmp_path / "model.bin", as_version_1)
        table = with_header(out / "embeddings.bin", tmp_path / "embeddings.bin", as_version_1)
        capsys.readouterr()
        assert run("evaluate", "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl", "--model", model) == 1
        assert run("train", "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl", "--embeddings", table,
                   "--model", tmp_path / "new.bin") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: not a triagenet-model v5 file",
                       "error: not a triagenet-embedding v4 file"]

    def test_version_2_files_refused(self, pipeline, tmp_path, capsys):
        out, config = pipeline
        model = with_header(out / "model.bin", tmp_path / "model.bin", as_version_2)
        table = with_header(out / "embeddings.bin", tmp_path / "embeddings.bin", as_version_2)
        capsys.readouterr()
        assert run("evaluate", "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl", "--model", model) == 1
        assert run("train", "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl", "--embeddings", table,
                   "--model", tmp_path / "new.bin") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: not a triagenet-model v5 file",
                       "error: not a triagenet-embedding v4 file"]
        assert not (tmp_path / "metrics.json").exists()

    def test_version_3_model_refused(self, pipeline, tmp_path, capsys):
        out, config = pipeline
        model = with_header(out / "model.bin", tmp_path / "model.bin", as_version_3)
        capsys.readouterr()
        assert run("evaluate", "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl", "--model", model) == 1
        assert capsys.readouterr().err == "error: not a triagenet-model v5 file\n"
        assert not (tmp_path / "metrics.json").exists()

    def test_version_4_model_and_version_3_embedding_refused(self, pipeline, tmp_path, capsys):
        out, config = pipeline
        model = with_header(out / "model.bin", tmp_path / "model.bin", as_version_4_model)
        table = with_header(out / "embeddings.bin", tmp_path / "embeddings.bin",
                            as_version_3_embedding)
        capsys.readouterr()
        assert run("evaluate", "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl", "--model", model) == 1
        assert run("train", "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl", "--embeddings", table,
                   "--model", tmp_path / "new.bin") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: not a triagenet-model v5 file",
                       "error: not a triagenet-embedding v4 file"]
        assert not (tmp_path / "metrics.json").exists()
        assert not (tmp_path / "new.bin").exists()

    def test_record_holds_the_split_in_split_order(self, pipeline):
        out, _ = pipeline
        data = load_model(out / "model.bin").data
        corpus = load_corpus(out / "corpus.jsonl")
        cut = split(corpus.records, (0.9, 0.05, 0.05), seed=derive_seed(CONFIG["seed"], "split"))
        assert (data.train, data.val, data.test) == tuple(map(tuple, cut))
        assert data.corpus_sha256 == file_sha256(out / "corpus.jsonl")
        assert load_table(out / "embeddings.bin").data == data

    def test_model_without_data_record_refused(self, pipeline, tmp_path, capsys):
        out, config = pipeline
        params = load_model(out / "model.bin")
        params.data = None
        save_model(params, tmp_path / "model.bin")
        capsys.readouterr()
        assert run("evaluate", "--config", config, "--out-dir", tmp_path,
                   "--corpus", out / "corpus.jsonl") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "records no training data" in err


class TestCorpusReads:
    """Commands read the corpus file once and parse only the records they use."""

    def test_evaluate_and_explain_parse_only_what_they_use(self, pipeline, tmp_path,
                                                           corpus_reads):
        out, config = pipeline
        opened, parsed = corpus_reads
        corpus, data = out / "corpus.jsonl", load_model(out / "model.bin").data
        common = ("--config", config, "--out-dir", tmp_path, "--corpus", corpus,
                  "--model", out / "model.bin")
        assert run("evaluate", *common) == 0
        assert opened.count(corpus) == 1
        assert parsed == [i + 1 for i in data.test]  # one record a line, no blank lines
        opened.clear()
        parsed.clear()
        assert run("explain", *common, "--cases", "0,3") == 0
        assert opened.count(corpus) == 1
        assert parsed == [1, 4]
        # the explain stages check only the scored class's training records
        labels = [r.label for r in load_corpus(corpus).records]
        urgent = [i + 1 for i in data.train if labels[i] == URGENT]
        assert 0 < len(urgent) < len(data.train)
        for command in ("score-symptoms", "pairs"):
            parsed.clear()
            assert run(command, *common) == 0
            assert parsed == urgent
        parsed.clear()
        assert run("drop-experiment", *common) == 0
        assert parsed == urgent + [i + 1 for i in data.test]

    def test_class_absent_from_split_gives_empty_tables(self, tmp_path, capsys):
        out, config = make_workspace(tmp_path, "small")
        common = ("--config", config, "--out-dir", out, "--seed", 3)
        assert run("gen-data", *common, "--cases", 40) == 0
        assert run("train", *common) == 0
        data = load_model(out / "model.bin").data
        labels = [r.label for r in load_corpus(out / "corpus.jsonl").records]
        assert "general_practice" not in {labels[i] for i in data.val + data.test}
        capsys.readouterr()
        for command, split_name, name, header in (
            ("score-symptoms", "val", "scores_general_practice_1gram.json",
             "feature   score  occurrences"),
            ("pairs", "test", "pairs_general_practice.json",
             "pair   first  second    pair  margin"),
        ):
            assert run(command, *common, "--class", "general_practice",
                       "--split", split_name) == 0
            assert (out / name).read_text() == "[]\n"
            assert capsys.readouterr().out == header + "\n"

    def test_train_records_the_bytes_it_parsed(self, pipeline, tmp_path, monkeypatch):
        out, config = pipeline
        corpus = tmp_path / "corpus.jsonl"
        original = (out / "corpus.jsonl").read_bytes()
        corpus.write_bytes(original)
        opens = []

        def swapping_open(path, *args, **kwargs):
            if Path(path) == corpus:
                opens.append(path)
                if len(opens) == 2:  # a second read would see other bytes, same records
                    corpus.write_bytes(original + b"\n")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(corpus_module, "open", swapping_open, raising=False)
        assert run("train", "--config", config, "--out-dir", tmp_path, "--corpus", corpus) == 0
        digest = hashlib.sha256(original).hexdigest()
        assert load_model(tmp_path / "model.bin").data.corpus_sha256 == digest
        manifest = json.loads((tmp_path / "manifest_train.json").read_text())
        assert manifest["inputs"]["corpus"]["sha256"] == digest

    @pytest.mark.parametrize("change", ["digest", "count"])
    def test_refused_before_any_record_is_parsed(self, pipeline, tmp_path, capsys,
                                                 corpus_reads, change):
        out, config = pipeline
        text = (out / "corpus.jsonl").read_text()
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(text + text.splitlines(keepends=True)[0])  # one record more
        model = out / "model.bin"
        if change == "count":  # a record naming these bytes, but the old split
            model = with_header(model, tmp_path / "model.bin",
                                edit_record("corpus_sha256", file_sha256(corpus)))
        capsys.readouterr()
        assert run("evaluate", "--config", config, "--out-dir", tmp_path,
                   "--corpus", corpus, "--model", model) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("different corpus file" if change == "digest"
                else "holds 201 records; the model's data record splits 200") in err
        assert corpus_reads[1] == []
        assert not (tmp_path / "metrics.json").exists()

    def test_malformed_record_in_a_used_split_gives_its_line(self, pipeline, tmp_path,
                                                              capsys):
        out, config = pipeline
        data = load_model(out / "model.bin").data
        lines = (out / "corpus.jsonl").read_text().splitlines(keepends=True)
        bad = data.test[0]
        lines[bad] = lines[bad].replace('"label":"', '"label":"x', 1)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(lines))
        with pytest.raises(SpecValidationError) as whole:
            load_corpus(corpus)
        assert str(whole.value).startswith(f"line {bad + 1}: unknown label")
        # a record naming these bytes, as if train had accepted them
        model = with_header(out / "model.bin", tmp_path / "model.bin",
                            edit_record("corpus_sha256", file_sha256(corpus)))
        common = ("--config", config, "--out-dir", tmp_path, "--corpus", corpus, "--model", model)
        capsys.readouterr()
        assert run("evaluate", *common, "--split", "val") == 0
        assert run("evaluate", *common, "--split", "test") == 1
        assert capsys.readouterr().err == f"error: {whole.value}\n"


class TestEnvironment:
    def test_out_dir_env_override(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "from_env"
        monkeypatch.setenv("TRIAGENET_OUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert run("gen-data", "--cases", "30") == 0
        assert (target / "corpus.jsonl").exists()
        capsys.readouterr()


class TestDefaults:
    def test_library_defaults_reproduce_train_without_config(self, tmp_path):
        assert run("gen-data", "--seed", 3, "--cases", 300, "--out-dir", tmp_path) == 0
        assert run("train", "--seed", 3, "--out-dir", tmp_path) == 0
        records = load_corpus(tmp_path / "corpus.jsonl").records
        tr, va, _ = split(records, seed=derive_seed(3, "split"))
        train_records = [records[i] for i in tr]
        # a token seen once in the train split: any min_count above 1 would drop it
        assert 1 in Counter(t for r in train_records for t in r.tokens).values()
        vocab = build_vocab(train_records)
        config = ModelConfig(vocab_size=len(vocab))
        params = init_params(config, seed=derive_seed(3, "init"))
        train(params, encode_corpus(train_records, vocab, config.max_len),
              encode_corpus([records[i] for i in va], vocab, config.max_len),
              HyperParams(), seed=derive_seed(3, "train"))
        saved = load_model(tmp_path / "model.bin")
        assert saved.config == config
        assert saved.data.tokens == tuple(vocab.id_to_token[2:])
        assert saved.tensors.keys() == params.tensors.keys()
        for name, ours in params.tensors.items():
            assert ours.tobytes() == saved.tensors[name].tobytes(), name


class TestResolvedConfig:
    """A run's settings are JSON values, wherever they come from."""

    def test_config_file_values_stay_lists(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"split": [0.8, 0.1, 0.1], "model": {"widths": [2, 1]}}))
        resolved = resolve_config(build_parser().parse_args(["train", "--config", str(config)]))
        assert resolved["split"] == [0.8, 0.1, 0.1]
        assert resolved["model"]["widths"] == [2, 1]

    def test_model_file_settings_are_lists(self, pipeline):
        out, config = pipeline
        args = build_parser().parse_args(["evaluate", "--config", str(config),
                                          "--out-dir", str(out)])
        run = Run(args, resolve_config(args))
        _load_trained(run)
        assert run.config["model"]["widths"] == CONFIG["model"]["widths"]
        assert run.config["model"]["mlp_layers"] == CONFIG["model"]["mlp_layers"]


def readme_block(heading, language):
    """The first ``language`` code block under the README's ``## heading``."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


class TestReadme:
    def test_library_use_block_runs(self, capsys):
        code = readme_block("Library use", "python")
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
        printed = capsys.readouterr().out
        assert "macro_f1" in printed and "seen in" in printed

    def test_configuration_block_holds_the_defaults(self, tmp_path):
        block = readme_block("Configuration and reproducibility", "json")
        config = tmp_path / "config.json"
        config.write_text(block)
        resolved = resolve_config(build_parser().parse_args(["train", "--config", str(config)]))
        tour = {**DEFAULT_CONFIG, "seed": 42, "cases": 2000}
        assert resolved == tour
        for key, section in json.loads(block).items():  # each one spelled out in full
            assert section == tour[key], key
