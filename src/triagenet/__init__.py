"""Explainable attention-CNN triage classification on synthetic symptom corpora.

The toolkit covers the full experiment loop: generate a seeded corpus
with planted red-flag ground truth (:mod:`triagenet.corpus`), pretrain
skip-gram embeddings (:mod:`triagenet.embedding`), train and evaluate
an attention-pooling CNN whose forward and backward passes are written
out over numpy arrays (:mod:`triagenet.model`, :mod:`triagenet.training`),
then rank warning symptoms by attention, validate them with drop
experiments, and render heatmaps (:mod:`triagenet.explain`). ``python3 -m triagenet`` exposes the same
steps as a reproducible command-line pipeline (:mod:`triagenet.cli`).
"""

from .corpus import (
    GENERAL_PRACTICE,
    LABELS,
    TELECARE,
    URGENT,
    CaseRecord,
    Corpus,
    DataContract,
    EncodedCase,
    GeneratorSpec,
    Vocabulary,
    build_lexicon,
    build_vocab,
    encode,
    encode_corpus,
    generate_corpus,
    load_corpus,
    oracle_label,
    save_corpus,
    split,
)
from .embedding import EmbeddingTable, load_table, save_table, train_skipgram
from .explain import (
    PairSynergy,
    SymptomScore,
    drop_experiment,
    pair_synergy,
    render_heatmap,
    score_features,
)
from .model import ModelConfig, ModelParams, init_params, load_model, save_model
from .model import predict, predict_batch, predict_probs
from .training import (
    HyperParams,
    Metrics,
    derive_seed,
    evaluate,
    grid_search,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "GENERAL_PRACTICE",
    "LABELS",
    "TELECARE",
    "URGENT",
    "CaseRecord",
    "Corpus",
    "DataContract",
    "EmbeddingTable",
    "EncodedCase",
    "GeneratorSpec",
    "HyperParams",
    "Metrics",
    "ModelConfig",
    "ModelParams",
    "PairSynergy",
    "SymptomScore",
    "Vocabulary",
    "build_lexicon",
    "build_vocab",
    "derive_seed",
    "drop_experiment",
    "encode",
    "encode_corpus",
    "evaluate",
    "generate_corpus",
    "grid_search",
    "init_params",
    "load_corpus",
    "load_model",
    "load_table",
    "oracle_label",
    "pair_synergy",
    "predict",
    "predict_batch",
    "predict_probs",
    "render_heatmap",
    "save_corpus",
    "save_model",
    "save_table",
    "score_features",
    "split",
    "train",
    "train_skipgram",
    "__version__",
]
