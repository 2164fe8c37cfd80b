"""Command-line pipeline: generate, pretrain, train, evaluate, explain.

Every subcommand resolves its settings from built-in defaults, then an
optional JSON config file, then flags, in that order. The resolved
settings, the root seed, and sha256 hashes of every input and output
file land in a manifest JSON next to the artifacts, so a run can be
reproduced (and verified byte for byte) from its manifest alone.

All randomness flows from the single root seed, split into per-purpose
streams (corpus data, parameter init, embedding pretraining, batch
shuffling, dropout, drop experiments), so changing one stage's seed
label never perturbs another stage.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import html
import inspect
import json
import os
import sys
import typing
from pathlib import Path

from . import __version__
from .config import ConfigError, check, field_types
from .corpus import (
    LABELS,
    Corpus,
    CorpusFile,
    DataContract,
    GeneratorSpec,
    Vocabulary,
    build_vocab,
    encode_corpus,
    file_sha256,
    generate_corpus,
    save_corpus,
    split,
)
from .embedding import ChecksumError, load_table, save_table, train_skipgram, validate_skipgram
from .explain import (
    drop_experiment,
    pair_synergy,
    render_heatmap,
    render_pair_table,
    render_score_table,
    score_features,
    score_grams,
)
from .model import ModelConfig, ShapeError, init_params, load_model, predict_batch, save_model
from .training import (
    EmptyRetainedError,
    HyperParams,
    TrainingDivergedError,
    derive_seed,
    evaluate,
    grid_search,
    render_metrics_table,
    train,
)


def _defaults(func) -> dict:
    """Each parameter of ``func`` that has a default, mapped to it."""
    return {name: p.default for name, p in inspect.signature(func).parameters.items()
            if p.default is not p.empty}


# each setting starts from the default of the type or function it configures;
# vocab_size comes from the corpus and the skip-gram seed from the root seed
DEFAULT_CONFIG = json.loads(json.dumps({  # as JSON values: tuples become lists
    "seed": 0,
    "cases": 1000,
    "split": _defaults(split)["ratios"],
    "min_count": _defaults(build_vocab)["min_count"],
    "generator": {},
    "model": {f.name: f.default for f in dataclasses.fields(ModelConfig)
              if f.name != "vocab_size"},
    "training": {f.name: f.default for f in dataclasses.fields(HyperParams)},
    "embedding": {name: value for name, value in _defaults(train_skipgram).items()
                  if name != "seed"},
}))

SPLITS = ("train", "val", "test")

# each section is then checked against the type or function it configures
_TOP_LEVEL = {"seed": int, "cases": int, "split": tuple[float, float, float], "min_count": int,
              **dict.fromkeys(("generator", "model", "training", "embedding"), dict)}
_MODEL_SETTINGS = {key: field_types(ModelConfig)[key] for key in DEFAULT_CONFIG["model"]}
_EMBEDDING_SETTINGS = {
    key: typing.get_type_hints(train_skipgram)[key]
    for key in DEFAULT_CONFIG["embedding"]
}

_USER_ERRORS = (
    ConfigError,
    ChecksumError,
    ShapeError,
    EmptyRetainedError,
    TrainingDivergedError,
)


# -- configuration ------------------------------------------------------------


def _deep_copy(obj):
    return json.loads(json.dumps(obj))


def _load_json(path):
    """The value of a JSON file; a file that is not UTF-8 text is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8 text ({e.reason})") from None


def resolve_config(args) -> dict:
    """Defaults, then config file, then flags, as JSON values; every value is checked.

    A wrong-typed value, an unknown key, or a section value out of range
    raises ConfigError, whichever command runs.
    """
    config = _deep_copy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        user = _load_json(args.config)
        check(user, _TOP_LEVEL)  # the values stay as the file has them
        for key, value in user.items():
            if isinstance(value, dict):
                config[key].update(value)
            else:
                config[key] = value
    for flag, path in (
        ("seed", ("seed",)),
        ("cases", ("cases",)),
        ("mode", ("generator", "mode")),
        ("arch", ("model", "arch")),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            target = config
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
    GeneratorSpec.from_dict(config["generator"])
    # the corpus fixes vocab_size; 2, the smallest it allows, stands in for it
    ModelConfig(**check(config["model"], _MODEL_SETTINGS, "model"), vocab_size=2).validate()
    HyperParams.from_dict(config["training"])
    validate_skipgram(**check(config["embedding"], _EMBEDDING_SETTINGS, "embedding"))
    return config


# -- artifact plumbing --------------------------------------------------------


def _out_dir(args) -> Path:
    """The output directory; only writing an output or a manifest makes it."""
    return Path(args.out_dir or os.environ.get("TRIAGENET_OUT_DIR") or ".")


@dataclasses.dataclass
class Run:
    """One command's record: its settings and the files it reads and writes, by name.

    A command registers each file where it reads the file or names the
    output's path; ``write_manifest`` hashes every file without a digest.
    """

    args: argparse.Namespace
    config: dict
    inputs: dict = dataclasses.field(default_factory=dict)  # name -> (path, sha256 or None)
    outputs: dict = dataclasses.field(default_factory=dict)  # name -> path

    def path(self, flag: str | None, default_name: str) -> Path:
        """The path ``--flag`` gives, else ``default_name`` in the output directory."""
        given = flag and getattr(self.args, flag, None)
        return Path(given) if given else _out_dir(self.args) / default_name

    def read(self, name: str, path, sha256: str | None = None) -> Path:
        """Register an input; ``sha256`` is the digest of the bytes already read, if any."""
        self.inputs[name] = (Path(path), sha256)
        return Path(path)

    def output(self, name: str, flag: str | None, default_name: str) -> Path:
        """Register an output and return its path, making the output directory."""
        _out_dir(self.args).mkdir(parents=True, exist_ok=True)
        self.outputs[name] = path = self.path(flag, default_name)
        return path


ROWS_PER_CALL = 256  # rows of a table per encoder call; bounds the text held at once


def write_json(obj, path: Path) -> None:
    """Write ``json.dump(obj, fh, indent=2, sort_keys=True)`` and a newline, byte for byte.

    ``json`` runs its C encoder only without an indent. A list of flat
    dicts, the shape of the large outputs (score and pair tables), goes
    through it ROWS_PER_CALL rows per call, written as it is made: the item
    separator carries the fields' indent, and each row boundary is
    rewritten, which is safe because a boundary holds a raw newline and no
    encoded string does. Anything else is small, and the indenting encoder
    writes it faster than one C call per container would.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if _is_table(obj):
            field, row = "\n    ", "\n  "
            fh.write("[")
            for start in range(0, len(obj), ROWS_PER_CALL):
                text = json.dumps(obj[start : start + ROWS_PER_CALL], sort_keys=True,
                                  separators=("," + field, ": "))
                rows = text[2:-2].replace("}," + field + "{", row + "}," + row + "{" + field)
                fh.write(("," if start else "") + row + "{" + field + rows + row + "}")
            fh.write("\n]")
        else:
            json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_table(obj) -> bool:
    """Whether ``obj`` is a nonempty list of nonempty dicts whose values hold no container."""
    containers = (dict, list, tuple)
    return (isinstance(obj, (list, tuple)) and bool(obj)
            and all(isinstance(row, dict) and row for row in obj)
            and not any(issubclass(t, containers)
                        for t in {type(v) for row in obj for v in row.values()}))


def write_manifest(run: Run, arguments: dict) -> Path:
    """Write the run's manifest: its settings, ``arguments`` and every file it registered."""
    command = run.args.command
    manifest = {
        "tool": "triagenet",
        "version": __version__,
        "command": command,
        "config": run.config,
        "root_seed": run.config["seed"],
        "arguments": arguments,
        "inputs": {
            name: {"path": str(p), "sha256": sha256 or file_sha256(p)}
            for name, (p, sha256) in run.inputs.items()
        },
        "outputs": {name: {"path": str(p), "sha256": file_sha256(p)}
                    for name, p in run.outputs.items()},
    }
    path = _out_dir(run.args) / f"manifest_{command.replace('-', '_')}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(manifest, path)
    return path


# -- shared pipeline steps ----------------------------------------------------


def _load_world(run: Run):
    """Records by split, train-split vocabulary, and the data record of all three.

    Only the commands that train decide the split and vocabulary; the record fixes them after.
    The record's sha256 is that of the bytes parsed here, read once.
    """
    corpus_path = run.path("corpus", "corpus.jsonl")
    corpus = CorpusFile(corpus_path)
    run.read("corpus", corpus_path, corpus.sha256)
    records = corpus.records()
    config = run.config
    indices = split(records, tuple(config["split"]), seed=derive_seed(config["seed"], "split"))
    splits = {name: [records[i] for i in idx] for name, idx in zip(SPLITS, indices)}
    vocab = build_vocab(splits["train"], min_count=config["min_count"])
    data = DataContract(corpus.sha256, *map(tuple, indices), tuple(vocab.id_to_token[2:]))
    return splits, vocab, data


def _load_trained(run: Run):
    """The corpus file, the vocabulary, and the model, checked against each other.

    The vocabulary comes from the model's data record, and a corpus file
    whose sha256 or record count differs from it is refused before any
    record is parsed; a command then parses only the records it uses. Since
    ``train`` checked every record of these bytes, a command that scores one
    class may skip the others' records unchecked. The run records the model
    file's own settings as its ``model`` config.
    """
    corpus_path = run.path("corpus", "corpus.jsonl")
    corpus = CorpusFile(corpus_path)
    run.read("corpus", corpus_path, corpus.sha256)
    model_path = run.read("model", run.path("model", "model.bin"))
    params = load_model(model_path)
    run.config["model"] = _deep_copy({key: getattr(params.config, key) for key in _MODEL_SETTINGS})
    data = params.data
    if data is None:
        raise ConfigError(f"{model_path} records no training data")
    if corpus.sha256 != data.corpus_sha256:
        raise ConfigError(f"model was trained on a different corpus file than {corpus_path}")
    if len(corpus) != data.n_records:
        raise ConfigError(f"{corpus_path} holds {len(corpus)} records; "
                          f"the model's data record splits {data.n_records}")
    return corpus, Vocabulary(data.tokens), params


def _training_inputs(run: Run, splits, vocab):
    """The model config, hyperparameters, and encoded train and val sets of a training run.

    Notes on stderr how many train and val documents truncation shortens.
    """
    cfg = ModelConfig.from_dict({**run.config["model"], "vocab_size": len(vocab)})
    hyper = HyperParams.from_dict(run.config["training"])
    _report_truncation(splits["train"] + splits["val"], cfg.max_len, "train and val")
    train_set, val_set = (encode_corpus(splits[s], vocab, cfg.max_len) for s in ("train", "val"))
    return cfg, hyper, train_set, val_set


def _report_truncation(records, max_len: int, what: str) -> int:
    """Note on stderr how many documents truncation shortens; returns that count.

    The note also counts the cases that lose a planted flag, the
    ground-truth evidence for their label: a pair cut in half is no
    evidence, since each member alone is harmless.
    """
    cut = [r for r in records if len(r.tokens) > max_len]
    if cut:
        lost = sum(1 for r in cut if r.planted_flags and max(r.planted_flags) >= max_len)
        print(
            f"note: {len(cut)} of {len(records)} {what} documents are longer than "
            f"max_len {max_len}; {lost} of them lose a planted flag",
            file=sys.stderr,
        )
    return len(cut)


# -- subcommands --------------------------------------------------------------
# Each takes the parsed flags and the run record, registers the files it
# reads and writes there, and returns the arguments its manifest records.


def cmd_gen_data(args, run: Run) -> dict:
    config = run.config
    spec = GeneratorSpec.from_dict(config["generator"])
    corpus = generate_corpus(spec, config["cases"], seed=derive_seed(config["seed"], "data"))
    out = run.output("corpus", "out", "corpus.jsonl")
    save_corpus(corpus, out)
    print(f"wrote {len(corpus.records)} cases to {out}")
    return {}


def cmd_pretrain(args, run: Run) -> dict:
    splits, vocab, data = _load_world(run)
    table = train_skipgram(
        Corpus(records=splits["train"]),
        vocab,
        dim=run.config["model"]["embedding_dim"],
        seed=derive_seed(run.config["seed"], "embedding"),
        **run.config["embedding"],
    )
    table = dataclasses.replace(table, data=data)
    out = run.output("embeddings", "out", "embeddings.bin")
    save_table(table, out)
    print(f"wrote {table.vectors.shape[0]}x{table.dim} embeddings to {out}")
    return {}


def cmd_train(args, run: Run) -> dict:
    config = run.config
    splits, vocab, data = _load_world(run)
    cfg, hyper, train_set, val_set = _training_inputs(run, splits, vocab)

    pretrained = None
    if args.embeddings:
        pretrained = load_table(run.read("embeddings", args.embeddings))
        if pretrained.data != data:
            raise ConfigError("embeddings were pretrained on a different corpus, split or "
                              "vocabulary; pretrain them with this run's --seed and --config")

    params = init_params(cfg, seed=derive_seed(config["seed"], "init"), pretrained=pretrained)
    params.data = data
    history = train(params, train_set, val_set, hyper, seed=derive_seed(config["seed"], "train"))

    model_path = run.output("model", "model", "model.bin")
    save_model(params, model_path)
    vocab.save(run.output("vocab", None, "vocab.json"))
    last = history.epochs[-1]
    print(
        f"trained {cfg.arch} for {len(history.epochs)} epochs: "
        f"train loss {last.train_loss:.4f}, val macro F1 {last.val_macro_f1:.4f}"
    )
    print(f"wrote model to {model_path}")
    return {"epochs": [dataclasses.asdict(e) for e in history.epochs]}


def cmd_evaluate(args, run: Run) -> dict:
    corpus, vocab, params = _load_trained(run)
    records = corpus.records(getattr(params.data, args.split))
    max_len = params.config.max_len
    cases = encode_corpus(records, vocab, max_len)
    metrics = evaluate(params, cases, threshold=args.confidence_threshold)
    truncated = _report_truncation(records, max_len, args.split)

    out = run.output("metrics", "out", "metrics.json")
    write_json({**dataclasses.asdict(metrics), "truncated_cases": truncated}, out)
    print(render_metrics_table([(args.split, metrics)]))
    if args.confidence_threshold is not None:
        print(f"discarded {1.0 - metrics.retained_fraction:.1%} of cases below the threshold")
    return {"split": args.split, "confidence_threshold": args.confidence_threshold}


def cmd_grid_search(args, run: Run) -> dict:
    splits, vocab, _ = _load_world(run)
    grid = _load_json(run.read("grid", args.grid))
    cfg, hyper, train_set, val_set = _training_inputs(run, splits, vocab)
    rows = grid_search(cfg, train_set, val_set, hyper, grid,
                       seed=derive_seed(run.config["seed"], "grid"))
    write_json(rows, run.output("results", "out", "grid_search.json"))
    best = rows[0]
    print(f"{len(rows)} combinations; best val macro F1 {best['val_macro_f1']:.4f}: {best['combo']}")
    return {}


def cmd_score_symptoms(args, run: Run) -> dict:
    corpus, vocab, params = _load_trained(run)
    records = corpus.records(getattr(params.data, args.split), args.class_name)
    _report_truncation(records, params.config.max_len, f"{args.split} {args.class_name}")
    scores = score_features(params, records, vocab, args.class_name, gram_size=args.gram)
    out = run.output("scores", "out", f"scores_{args.class_name}_{args.gram}gram.json")
    write_json([s.to_dict() for s in scores], out)
    print(render_score_table(scores, top=args.top))
    return {"class": args.class_name, "gram": args.gram, "split": args.split}


def cmd_pairs(args, run: Run) -> dict:
    corpus, vocab, params = _load_trained(run)
    records = corpus.records(getattr(params.data, args.split), args.class_name)
    _report_truncation(records, params.config.max_len, f"{args.split} {args.class_name}")
    unigrams, bigrams = score_grams(params, records, vocab, args.class_name, (1, 2))
    pairs = pair_synergy(unigrams, bigrams)
    out = run.output("pairs", "out", f"pairs_{args.class_name}.json")
    write_json([vars(p) for p in pairs], out)  # flat rows; asdict would deep-copy each value
    print(render_pair_table(pairs, top=args.top))
    return {"class": args.class_name, "split": args.split}


def cmd_drop_experiment(args, run: Run) -> dict:
    corpus, vocab, params = _load_trained(run)
    # the rankings read only the class's training records
    train_records = corpus.records(params.data.train, args.class_name)
    test_records = corpus.records(params.data.test)
    _report_truncation(train_records, params.config.max_len, f"train {args.class_name}")
    _report_truncation(test_records, params.config.max_len, "test")
    rows = drop_experiment(params, train_records, test_records, vocab, max_drops=args.drops,
                           class_name=args.class_name, seed=derive_seed(run.config["seed"], "drop"))
    out = run.output("results", "out", "drop_experiment.json")
    write_json([dataclasses.asdict(r) for r in rows], out)
    print(render_metrics_table([(r.label, r.metrics) for r in rows]))
    return {"drops": args.drops, "class": args.class_name}


def cmd_explain(args, run: Run) -> dict:
    if args.format == "ansi" and args.out:
        raise ConfigError("--out names the HTML file; --format ansi prints to the terminal")
    try:
        ids = [int(c) for c in args.case_ids.split(",") if c.strip() != ""]
    except ValueError:
        raise ConfigError(f"case ids must be integers, got {args.case_ids!r}")
    if not ids:
        raise ConfigError("no case ids given")

    corpus, vocab, params = _load_trained(run)
    bad = [i for i in ids if not 0 <= i < len(corpus)]
    if bad:
        raise ConfigError(f"case ids out of range for {len(corpus)} records: {bad}")
    if params.config.arch != "acnn":
        raise ConfigError("explain needs a model with attention pooling")
    records = corpus.records(ids)
    _report_truncation(records, params.config.max_len, "explained")
    preds = predict_batch(params, encode_corpus(records, vocab, params.config.max_len))
    sections = []
    for i, rec, pred in zip(ids, records, preds):
        shown = rec.tokens[: pred.attention.n_tokens]
        caption = (
            f"case {i}: true={rec.label} predicted={LABELS[pred.predicted]}"
            f" p={pred.probs[pred.predicted]:.2f}"
        )
        if args.format == "ansi":
            sections.append(caption + "\n" + render_heatmap(shown, pred.attention, fmt="ansi"))
        else:
            sections.append(
                f"<h3>{html.escape(caption)}</h3>\n"
                + render_heatmap(shown, pred.attention, fmt="html")
            )

    if args.format == "ansi":
        print("\n\n".join(sections))
    else:
        out = run.output("heatmaps", "out", "heatmaps.html")
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(
                "<!doctype html>\n"
                '<html><head><meta charset="utf-8"><title>attention heatmaps</title></head>\n'
                "<body>\n" + "\n".join(sections) + "\n</body></html>\n"
            )
        print(f"wrote {len(ids)} heatmaps to {out}")
    return {"cases": ids, "format": args.format}


# -- parser -------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_common(sub) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--out-dir", help="directory for artifacts and manifests (default: . "
                                       "or $TRIAGENET_OUT_DIR)")
    sub.add_argument("--seed", type=int, help="root seed, split per subsystem")


def _add_model_inputs(sub) -> None:
    sub.add_argument("--corpus", help="corpus JSONL path (default: <out-dir>/corpus.jsonl)")
    sub.add_argument("--model", help="model file path (default: <out-dir>/model.bin)")


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag a subcommand lacks (train --out) must not
    # silently match a longer one it has (--out-dir)
    parser = argparse.ArgumentParser(
        prog="triagenet",
        description="Explainable neural triage: synthetic data, training, "
        "attention-based warning-symptom detection.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"triagenet {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(commands.add_parser, allow_abbrev=False)

    sub = add_parser("gen-data", help="generate a synthetic triage corpus")
    _add_common(sub)
    sub.add_argument("--cases", type=int, help="number of case records")
    sub.add_argument("--mode", choices=("symptoms", "fulltext"), help="token stream style")
    sub.add_argument("--out", help="corpus output path")
    sub.set_defaults(func=cmd_gen_data)

    sub = add_parser("pretrain-embeddings", help="train skip-gram vectors on the train split")
    _add_common(sub)
    sub.add_argument("--corpus", help="corpus JSONL path")
    sub.add_argument("--out", help="embeddings output path")
    sub.set_defaults(func=cmd_pretrain)

    sub = add_parser("train", help="train a classifier")
    _add_common(sub)
    sub.add_argument("--corpus", help="corpus JSONL path")
    sub.add_argument("--arch", choices=("acnn", "kimcnn"), help="attention or max pooling")
    sub.add_argument("--embeddings", help="pretrained embeddings file")
    sub.add_argument("--model", help="model output path")
    sub.set_defaults(func=cmd_train)

    sub = add_parser("evaluate", help="metrics on a held-out split")
    _add_common(sub)
    _add_model_inputs(sub)
    sub.add_argument("--split", choices=SPLITS, default="test")
    sub.add_argument(
        "--confidence-threshold",
        type=float,
        help="discard predictions whose top probability is below this",
    )
    sub.add_argument("--out", help="metrics JSON output path")
    sub.set_defaults(func=cmd_evaluate)

    sub = add_parser("grid-search", help="sweep hyperparameter combinations")
    _add_common(sub)
    sub.add_argument("--corpus", help="corpus JSONL path")
    sub.add_argument("--grid", required=True, help="JSON file mapping knob name to value list")
    sub.add_argument("--out", help="results JSON output path")
    sub.set_defaults(func=cmd_grid_search)

    sub = add_parser("score-symptoms", help="rank n-gram features by attention")
    _add_common(sub)
    _add_model_inputs(sub)
    sub.add_argument("--class", dest="class_name", choices=LABELS, default="urgent_care")
    sub.add_argument("--gram", type=int, choices=(1, 2), default=1)
    sub.add_argument("--split", choices=SPLITS, default="train")
    sub.add_argument("--top", type=_positive_int, default=20,
                     help="rows to print (file holds all)")
    sub.add_argument("--out", help="score table JSON output path")
    sub.set_defaults(func=cmd_score_symptoms)

    sub = add_parser("pairs", help="bigrams scoring above both member tokens")
    _add_common(sub)
    _add_model_inputs(sub)
    sub.add_argument("--class", dest="class_name", choices=LABELS, default="urgent_care")
    sub.add_argument("--split", choices=SPLITS, default="train")
    sub.add_argument("--top", type=_positive_int, default=20)
    sub.add_argument("--out", help="pair table JSON output path")
    sub.set_defaults(func=cmd_pairs)

    sub = add_parser("drop-experiment", help="re-evaluate after deleting ranked tokens")
    _add_common(sub)
    _add_model_inputs(sub)
    sub.add_argument("--drops", type=int, choices=(1, 2), default=1)
    sub.add_argument("--class", dest="class_name", choices=LABELS, default="urgent_care")
    sub.add_argument("--out", help="results JSON output path")
    sub.set_defaults(func=cmd_drop_experiment)

    sub = add_parser("explain", help="attention heatmaps for chosen cases")
    _add_common(sub)
    _add_model_inputs(sub)
    sub.add_argument("--cases", dest="case_ids", required=True,
                     help="comma-separated record indices")
    sub.add_argument("--format", choices=("html", "ansi"), default="html")
    sub.add_argument("--out", help="HTML output path (html format only)")
    sub.set_defaults(func=cmd_explain)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: every default is a str, an int or a command
    # function, so no call can change what the next one parses
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        run = Run(args, resolve_config(args))
        if args.config:
            run.read("config", args.config)
        write_manifest(run, args.func(args, run))
        return 0
    except json.JSONDecodeError as e:
        print(f"error: malformed JSON: {e}", file=sys.stderr)
        return 1
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # after _USER_ERRORS: ChecksumError is an IOError
        what = f"{e.strerror.lower()}: {e.filename}" if e.strerror and e.filename else e
        print(f"error: {what}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
