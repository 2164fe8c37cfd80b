"""triagenet benchmark: one workload per process, every metric by name.

    python3 benchmarks/run.py --workload tour --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``. The program is driven only through ``triagenet.cli.main`` and
the names in ``triagenet.__all__``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones from a
traced run with ``--trace 1``). See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("benchmarks") / "out"  # relative to ROOT, so manifests match across checkouts
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

GATE = 0.6
DROPS = 2
EXPLAIN = ("score", "pairs", "drop")  # the stages explain_cases_per_s covers
SETUP_REPEATS = 5
MIN_ROUNDS = 3  # also the exact round count of a traced run, so its counts repeat
HEATMAP_CASES = "0,1,2,3"
UNITS_PER_ROUND = 2  # pretrain and train units per round
PRESENTATIONS = 2000  # fresh cases the request loop cycles through
# Presentations per request block. Each block is timed between two
# calibration samples, so a short block follows the machine's speed
# closely; 250 leaves 25 samples beyond each block's p90.
REQUEST_BLOCK = 250
MIN_SUPPORT = 10  # urgent training cases a token needs to enter flags_top10

# The README tour config, written out in full so that no CLI default
# leaks into a workload.
README_CONFIG = {
    "cases": 2000,
    "split": [0.9, 0.05, 0.05],
    "min_count": 1,
    "generator": {},
    "model": {
        "max_len": 16, "embedding_dim": 32, "widths": [1, 2, 3], "filters": 32,
        "attention_size": 24, "mlp_layers": [48], "dropout": 0.2, "arch": "acnn",
    },
    "training": {"lr": 0.002, "epochs": 5, "batch_size": 64},
    "embedding": {"iters": 3, "window": 5, "negatives": 5, "lr": 0.025},
}


@dataclass(frozen=True)
class Workload:
    config: dict  # overrides of README_CONFIG, written to the CLI config file
    pretrain_unit: int  # training cases in one skip-gram unit (one iteration)
    train_unit: int  # training cases in one training unit (one epoch)
    evals_per_round: int  # bulk evaluate calls per round
    requests_per_round: int  # closed-loop presentations per round, in blocks of REQUEST_BLOCK
    readme_claims: bool = False


WORKLOADS = {
    # The experiment a researcher runs: skip-gram and per-case training
    # graphs do most of the work.
    "tour": Workload(
        config={}, pretrain_unit=80, train_unit=128,
        evals_per_round=3, requests_per_round=1000, readme_claims=True,
    ),
    # Operational triage on noisy labels: short training, then single
    # presentations (no batching possible) and a bulk audit of a large
    # held-out split. Label noise 0.15 (the paper's 79% precision) makes
    # drop_gap spread by a quarter across seeds; 0.05 keeps it steady.
    "clinic": Workload(
        config={
            "cases": 2400,
            "split": [0.5, 0.05, 0.45],
            "generator": {"label_noise": 0.05},
            "embedding": {"iters": 1},
        },
        pretrain_unit=80, train_unit=128,
        evals_per_round=1, requests_per_round=1500,
    ),
    # Fulltext documents with max_len past the longest one: about 4x
    # the window positions per case, widely varying padding, and a
    # Zipf-skewed skip-gram stream from the filler words.
    "longdoc": Workload(
        config={
            "cases": 1000,
            "split": [0.6, 0.05, 0.35],
            "generator": {"mode": "fulltext"},
            "model": {"max_len": 96},
            "training": {"epochs": 8, "lr": 0.01},
            "embedding": {"iters": 1},
        },
        pretrain_unit=16, train_unit=80,
        evals_per_round=2, requests_per_round=1000,
    ),
}

TOY = {"cases": 600, "training": {"lr": 0.01}, "embedding": {"iters": 1}}


def merged(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        out[key] = merged(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


@dataclass
class Counter:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def import_program():
    """Import triagenet from this checkout's src/ and nowhere else."""
    if not (SRC / "triagenet" / "__init__.py").is_file():
        sys.exit(f"error: no triagenet sources under {SRC}")
    for name in BLAS_THREADS:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import triagenet
    import triagenet.cli

    import_s = time.perf_counter() - start
    if Path(triagenet.__file__).resolve().parent != (SRC / "triagenet").resolve():
        sys.exit(f"error: imported triagenet from {triagenet.__file__}, not {SRC}")
    return triagenet, import_s


class Calibration:
    """A fixed kernel of interpreter work and small numpy calls, never
    calling the program, timed next to every measured unit.

    This machine's speed drifts by a quarter between runs minutes apart,
    for every kind of work alike. Each unit's wall time is divided by the
    kernel time measured around it and multiplied by ``REFERENCE_S``, the
    kernel's median time on the machine benchmarks/README.md describes;
    the end-to-end times are in that machine's seconds.
    """

    ITERS = 800
    SAMPLES = 5
    REFERENCE_S = 0.004

    def __init__(self):
        import numpy as np

        self.a = np.linspace(-1.0, 1.0, 16 * 32).reshape(16, 32)
        self.b = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
        self.samples: list[float] = []

    def measure(self) -> float:
        import numpy as np

        runs = []
        for _ in range(self.SAMPLES):
            start = time.perf_counter()
            acc, table = 0.0, {}
            for i in range(self.ITERS):
                acc += float(np.tanh(self.a @ self.b)[i % 16, 0])
                table[i % 97] = acc
            runs.append(time.perf_counter() - start)
        self.samples.append(statistics.median(runs))
        return self.samples[-1]


def slices(items: list, size: int) -> list[list]:
    """Consecutive slices of ``size`` items; a short tail is dropped."""
    return [items[i : i + size] for i in range(0, len(items) - size + 1, size)] or [items]


def skipgram_pairs(sequences, window: int) -> tuple:
    """(center, context) id pairs of every skip-gram window, as numpy arrays."""
    import numpy as np

    centers, contexts = [], []
    for seq in sequences:
        n = len(seq)
        for i in range(n):
            for j in range(max(0, i - window), min(n, i + window + 1)):
                if j != i:
                    centers.append(seq[i])
                    contexts.append(seq[j])
    return np.array(centers, dtype=np.int64), np.array(contexts, dtype=np.int64)


class Bench:
    def __init__(self, tn, name: str, seed: int, seconds: float, tracer, toy: bool):
        self.tn = tn
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work = WORKLOADS[name]
        self.readme_claims = self.work.readme_claims and not toy  # they hold at full size only
        over = merged(self.work.config, TOY) if toy else self.work.config
        self.config = merged(merged(README_CONFIG, over), {"seed": seed})
        self.out = OUT / name
        self.ops = Counter()
        self.cal = Calibration()
        self.times: dict[str, list[float]] = {}  # normalised, see Calibration
        self.raw: dict[str, list[float]] = {}
        self.requests = 0
        self.block_ms: list[float] = []  # raw latencies of the last request block
        self.block_percentiles = []  # normalised (p50, p90) of each request block
        self.request_preds = []
        self.rounds = 0
        self.units = 0
        self.rates: dict[str, list[float]] = {}  # work per normalised second, per unit
        # work the stages were handed, counted from their inputs
        self.forwards_needed = 0
        self.skipgram_steps = 0

    # -- driving the program ------------------------------------------------

    def cli(self, *argv) -> None:
        argv = [str(a) for a in argv] + ["--seed", str(self.seed), "--config",
                                         str(self.out / "config.json"), "--out-dir", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.tn.cli.main(argv)
        self.ops.record(code == 0, f"{argv[0]} exited {code}")

    def timed(self, stage: str, fn, *args) -> float:
        """Run one unit; returns the factor its time was normalised by."""
        if self.tracer is not None:
            self.tracer.trace_id = f"{stage}-{len(self.times.get(stage, ()))}"
        before = self.cal.samples[-1] if self.cal.samples else self.cal.measure()
        start = time.perf_counter()
        fn(*args)
        end = time.perf_counter()
        factor = Calibration.REFERENCE_S / ((before + self.cal.measure()) / 2)
        self.raw.setdefault(stage, []).append(end - start)
        self.times.setdefault(stage, []).append((end - start) * factor)
        if self.tracer is not None:
            self.tracer.stage(stage, start, end)
        return factor

    def rate(self, stage: str, work: float) -> None:
        self.rates.setdefault(stage, []).append(work / self.times[stage][-1])

    def setup_unit(self):
        tn = self.tn
        self.cli("gen-data")
        corpus = tn.load_corpus(self.out / "corpus.jsonl")
        tr, va, te = tn.split(
            corpus.records, tuple(self.config["split"]),
            seed=tn.derive_seed(self.seed, "split"),
        )
        vocab = tn.build_vocab((corpus.records[i] for i in tr), min_count=self.config["min_count"])
        self.world = corpus, (tr, va, te), vocab

    def pretrain_unit(self, records, vocab) -> None:
        emb = self.config["embedding"]
        self.tn.train_skipgram(
            self.tn.Corpus(records=records), vocab, dim=self.config["model"]["embedding_dim"],
            iters=1, window=emb["window"], negatives=emb["negatives"], lr=emb["lr"],
            seed=self.tn.derive_seed(self.seed, "bench-pretrain-unit"),
        )
        self.ops.record(True, "pretrain unit")

    def train_unit(self, params, train_cases, val_cases) -> None:
        hyper = self.tn.HyperParams(**merged(self.config["training"], {"epochs": 1}))
        self.tn.train(params, train_cases, val_cases, hyper,
                      seed=self.tn.derive_seed(self.seed, "bench-train-unit"))
        self.ops.record(True, "train unit")

    def present(self, params, vocab, record):
        """One presentation: encode, predict, gate, recommend, top token."""
        tn = self.tn
        pred = tn.predict(params, tn.encode(record, vocab, params.config.max_len))
        att = pred.attention
        advice = tn.LABELS[pred.predicted] if float(pred.probs[pred.predicted]) >= GATE else "refer"
        top_token = record.tokens[int(att.alphas[1][: att.n_tokens].argmax())]
        return pred, advice, top_token

    def request_block(self, params, vocab, stream) -> None:
        clock = time.perf_counter
        self.block_ms = []
        for _ in range(REQUEST_BLOCK):
            record = stream[self.requests % len(stream)]
            self.requests += 1
            if self.tracer is not None:
                self.tracer.trace_id = f"request-{self.requests}"
            start = clock()
            try:
                pred, advice, _ = self.present(params, vocab, record)
            except Exception as e:  # a failed request is counted, not fatal
                self.ops.record(False, f"request: {e!r}")
                continue
            self.block_ms.append((clock() - start) * 1e3)
            gated = (advice == "refer") == (float(pred.probs.max()) < GATE)
            self.ops.record(gated, "request gate")
            if len(self.request_preds) < 2000:
                self.request_preds.append(pred)

    # -- the workload -------------------------------------------------------

    def run(self):
        import numpy as np

        tn = self.tn
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        (self.out / "config.json").write_text(json.dumps(self.config, sort_keys=True))
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
            tracer.start()

        for _ in range(SETUP_REPEATS):
            self.timed("setup", self.setup_unit)
        corpus, (tr, va, te), vocab = self.world

        cfg, emb = self.config, self.config["embedding"]
        max_len = cfg["model"]["max_len"]
        train_records = [corpus.records[i] for i in tr]
        id_of = {t: vocab.id_of(t) for t in {t for r in corpus.records for t in r.tokens}}
        ids = lambda recs: [[id_of[t] for t in r.tokens] for r in recs]
        self.pairs = skipgram_pairs(ids(train_records), emb["window"])
        # successive units take successive slices of the train split, so the
        # medians cover the whole split rather than whichever cases come first
        pretrain_chunks = [
            (chunk, len(skipgram_pairs(ids(chunk), emb["window"])[0]))
            for chunk in slices(train_records, self.work.pretrain_unit)
        ]
        n_train = min(self.work.train_unit, len(tr))
        n_val = max(1, round(n_train * len(va) / len(tr)))
        train_chunks = list(zip(
            slices(tn.encode_corpus(train_records, vocab, max_len), n_train),
            itertools.cycle(slices(
                tn.encode_corpus([corpus.records[i] for i in va], vocab, max_len), n_val)),
        ))
        model_config = tn.ModelConfig(
            vocab_size=len(vocab),
            **merged(cfg["model"], {"widths": tuple(cfg["model"]["widths"]),
                                    "mlp_layers": tuple(cfg["model"]["mlp_layers"])}),
        )
        urgent_train = sum(corpus.records[i].label == tn.URGENT for i in tr)
        spec = tn.GeneratorSpec.from_dict(cfg["generator"])
        stream = tn.generate_corpus(
            spec, PRESENTATIONS, seed=tn.derive_seed(self.seed, "bench-presentations")
        ).records

        # the pipeline, once, at the workload's full config
        deadline = time.perf_counter() + self.seconds
        epochs = cfg["training"]["epochs"]
        self.timed("pipeline_pretrain", self.cli, "pretrain-embeddings")
        self.skipgram_steps += len(self.pairs[0]) * emb["iters"]
        self.timed("pipeline_train", self.cli, "train", "--embeddings", self.out / "embeddings.bin")
        self.forwards_needed += epochs * (len(tr) + len(va))
        params = tn.load_model(self.out / "model.bin")
        served_vocab = tn.Vocabulary.load(self.out / "vocab.json")

        # then whole rounds of equal units until the time is up
        while self.rounds < MIN_ROUNDS or (tracer is None and time.perf_counter() < deadline):
            for _ in range(UNITS_PER_ROUND):
                records, pairs = pretrain_chunks[self.units % len(pretrain_chunks)]
                self.timed("pretrain", self.pretrain_unit, records, vocab)
                self.rate("pretrain", pairs)
                self.skipgram_steps += pairs
                cases, val = train_chunks[self.units % len(train_chunks)]
                unit_params = tn.init_params(model_config, seed=tn.derive_seed(self.seed, "bench-init"))
                self.timed("train", self.train_unit, unit_params, cases, val)
                self.rate("train", len(cases))
                self.forwards_needed += len(cases) + len(val)
                self.units += 1
            for _ in range(self.work.evals_per_round):
                self.timed("evaluate", self.cli, "evaluate", "--confidence-threshold", GATE)
                self.forwards_needed += len(te)
            self.timed("score", self.cli, "score-symptoms", "--gram", 1)
            self.timed("pairs", self.cli, "pairs")
            self.timed("drop", self.cli, "drop-experiment", "--drops", DROPS)
            # unigram scores, pair scores and the drop ranking each need one
            # pass over the urgent training cases; the drop conditions one
            # pass over the test split each
            self.forwards_needed += 3 * urgent_train + len(te) * (1 + 3 * DROPS)
            self.timed("heatmap", self.cli, "explain", "--cases", HEATMAP_CASES)
            self.forwards_needed += len(HEATMAP_CASES.split(","))
            for _ in range(self.work.requests_per_round // REQUEST_BLOCK):
                factor = self.timed("requests", self.request_block, params, served_vocab, stream)
                self.block_percentiles.append(np.percentile(np.array(self.block_ms) * factor, [50, 90]))
            self.forwards_needed += self.work.requests_per_round
            self.rounds += 1
        if tracer is not None:
            tracer.stop()
            tracer.uninstall()
        # before the checks, so that their allocations do not count
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.params = params

    # -- results ------------------------------------------------------------

    def end_to_end(self, import_s: float, quality: dict) -> dict:
        import numpy as np

        tr, _, te = self.world[1]
        med = {k: statistics.median(v) for k, v in self.times.items()}
        med["explain"] = statistics.median(map(sum, zip(*(self.times[k] for k in EXPLAIN))))
        # the import ran before the first kernel sample; the median of the
        # samples around the set-up units stands for the speed of that
        # moment better than the one sample after it
        import_factor = Calibration.REFERENCE_S / statistics.median(self.cal.samples[: SETUP_REPEATS + 1])
        values = {
            "setup_s": (import_s * import_factor + med["setup"], "s"),
            "pretrain_pairs_per_s": (statistics.median(self.rates["pretrain"]), "pairs/s"),
            "train_examples_per_s": (statistics.median(self.rates["train"]), "examples/s"),
            "infer_cases_per_s": (len(te) / med["evaluate"], "cases/s"),
            # input cases of score-symptoms, pairs and drop-experiment
            "explain_cases_per_s": ((3 * len(tr) + len(te)) / med["explain"], "cases/s"),
            # medians over the request blocks, so one burst of interference
            # moves one block's tail, not the run's; p99 spread by 0.28
            # across seeds even so, p90 holds
            "request_p50_ms": (float(np.median([p[0] for p in self.block_percentiles])), "ms"),
            "request_p90_ms": (float(np.median([p[1] for p in self.block_percentiles])), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "test_macro_f1": (quality["test_macro_f1"], "ratio"),
            "urgent_precision_c0.6": (quality["urgent_precision_c0.6"], "ratio"),
            "retained_c0.6": (quality["retained_c0.6"], "ratio"),
            "flags_top10": (quality["flags_top10"], "count"),
            "drop_gap": (quality["drop_gap"], "ratio"),
            "flag_hit1": (quality["flag_hit1"], "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def per_layer(self) -> dict:
        t = self.tracer
        values = {k: (v, "s") for k, v in t.layer_seconds().items()}
        values.update({
            "embedding.steps": (self.skipgram_steps, "count"),
            "autodiff.op_calls": (
                t.count_module("autodiff", exclude=("autodiff.Tensor.backward",)), "count"),
            "autodiff.backward_calls": (t.count("autodiff.Tensor.backward"), "count"),
            "model.predict_calls": (t.count("model.predict"), "count"),
            "model.forwards_per_case": (t.count("model.forward_graph") / self.forwards_needed,
                                        "ratio"),
            "training.adam_steps": (t.count("training.adam_step"), "count"),
        })
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def quality_and_checks(bench: Bench):
    """Quality metrics from the run's artifacts, and every output check."""
    import numpy as np

    from checks import (
        check_bulk_against_single, check_manifests, check_predictions,
        check_readme_claims, check_scores, check_skipgram,
    )

    tn = bench.tn
    out = bench.out
    params = bench.params
    corpus, (tr, _, te), vocab = bench.world
    max_len = params.config.max_len
    rng = np.random.default_rng(tn.derive_seed(bench.seed, "bench-checks"))
    lex = tn.build_lexicon(tn.GeneratorSpec.from_dict(bench.config["generator"]))

    test_records = [corpus.records[i] for i in te]
    test_cases = [tn.encode(r, vocab, max_len) for r in test_records]
    test_preds = [tn.predict(params, c) for c in test_cases]
    audit = json.loads((out / "metrics.json").read_text())
    results, lib_metrics = check_bulk_against_single(tn, params, test_cases, test_preds, audit, GATE)

    urgent_train = [corpus.records[i] for i in tr if corpus.records[i].label == tn.URGENT]
    urgent_preds = [tn.predict(params, tn.encode(r, vocab, max_len)) for r in urgent_train]
    results.append(check_predictions(
        "distributions_well_formed", test_preds + urgent_preds + bench.request_preds, max_len))
    scores = json.loads((out / "scores_urgent_care_1gram.json").read_text())
    results.append(check_scores(scores, urgent_train, urgent_preds, rng))

    emb = bench.config["embedding"]
    table = tn.load_table(out / "embeddings.bin").vectors
    init = tn.train_skipgram(
        tn.Corpus(records=urgent_train[:1]), vocab, dim=table.shape[1], iters=0,
        seed=tn.derive_seed(bench.seed, "embedding"),
    ).vectors
    results.append(check_skipgram(table, init, bench.pairs, emb["negatives"], rng, pad_id=0))

    manifests, digest = check_manifests(out)
    results.append(manifests)

    drop_rows = json.loads((out / "drop_experiment.json").read_text())
    recall = {r["label"]: r["metrics"]["per_class"][tn.URGENT]["recall"] for r in drop_rows}
    pairs = json.loads((out / "pairs_urgent_care.json").read_text())
    # a token seen in a handful of mislabeled cases can score 1.0 and crowd
    # the raw top-10; rank only tokens with enough support to mean something
    supported = [s for s in scores if s["occurrences"] >= MIN_SUPPORT]
    planted_pairs = set(lex.pairs)
    hits, flagged = 0, 0
    for rec, pred in zip(test_records, test_preds):
        if not rec.planted_flags:
            continue
        flagged += 1
        width = len(rec.planted_flags)
        n_pos = pred.attention.n_tokens - width + 1
        hits += int(pred.attention.alphas[width][:n_pos].argmax()) == rec.planted_flags[0]
    quality = {
        "test_macro_f1": lib_metrics.macro_f1,
        "urgent_precision_c0.6": audit["per_class"][tn.URGENT]["precision"],
        "retained_c0.6": audit["retained_fraction"],
        "flags_top10": sum(s["feature"] in lex.red_flags for s in supported[:10]),
        "pairs_positive": sum(
            (p["first"], p["second"]) in planted_pairs and p["margin"] > 0 for p in pairs),
        "drop_gap": recall["Baseline"] - recall["Attention Drop"],
        "flag_hit1": hits / flagged,
    }
    # The README states its claims for seed 42 on the ranking that
    # score-symptoms prints; seed 8 breaks them (the width-1 attention
    # settles on benign tokens), so they are reported but not counted in
    # ``correct``. flags_top10, drop_gap and flag_hit1 carry them as gated
    # metrics, and steady.py lists the seeds on which they fail.
    claims = []
    if bench.readme_claims:
        printed_flags = sum(s["feature"] in lex.red_flags for s in scores[:10])
        claims.append(check_readme_claims(quality["test_macro_f1"], printed_flags, recall))
    lengths = np.array([len(r.tokens) for r in corpus.records])
    truncated = int(np.sum(lengths > max_len))
    results.append(("no_truncation", truncated == 0,
                    f"{truncated} of {len(lengths)} documents longer than max_len {max_len}, "
                    f"lengths {lengths.min()}-{lengths.max()} (mean {lengths.mean():.2f}), "
                    f"padding {1 - np.minimum(lengths, max_len).mean() / max_len:.3f} of positions"))
    return quality, results, claims, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    tn, import_s = import_program()
    os.chdir(ROOT)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(tn)
    bench = Bench(tn, args.workload, args.seed, args.seconds, tracer, args.toy)
    try:
        bench.run()
        quality, results, claims, digest = quality_and_checks(bench)
        metrics = bench.per_layer() if tracer else bench.end_to_end(import_s, quality)
    except Exception:
        traceback.print_exc()
        return 1
    if tracer is not None:
        tracer.write(bench.out / "trace.json")

    for name, ok, detail in results:
        print(f"check {'ok' if ok else 'FAILED'} {name}: {detail}")
    for name, ok, detail in claims:
        print(f"claim {'holds' if ok else 'FAILS'} {name}: {detail}")
    for error in bench.ops.errors[:5]:
        print(f"failed operation: {error}")
    print(f"info rounds={bench.rounds} requests={bench.requests} "
          f"kernel_median_ms={statistics.median(bench.cal.samples) * 1e3:.3f} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
          f"numpy={sys.modules['numpy'].__version__} nproc={os.cpu_count()}")
    for kind, times in (("normalised", bench.times), ("raw", bench.raw)):
        units = " ".join(f"{k}={statistics.median(v) * 1e3:.2f}/{len(v)}"
                         for k, v in sorted(times.items()))
        print(f"info {kind} unit medians (ms/count) {units}")
    # pairs_positive takes 3 to 5 across seeds on longdoc, too coarse to gate
    print(f"info pairs_positive={quality['pairs_positive']}")
    print(f"manifests {digest}")
    correct = all(ok for _, ok, _ in results)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
