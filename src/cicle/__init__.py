"""Conformal gating for in-context text classification.

A cheap TF-IDF + logistic-regression classifier drives split conformal
prediction; test items whose prediction set is a singleton skip the LLM
entirely, and the rest get a prompt restricted to the set's classes with a
few similar examples per class. Plain few-shot baselines, a mock-oracle LLM
client, an experiment runner and a reporting harness round out the toolkit.
"""

from .classifier import LogisticModel, TrainConfig, nll_and_grad, predict_proba, train
from .conformal import (ConformalCalibration, ConformalSet, calibrate, calibration_from_scores,
                        predict_set, quantile_rank)
from .corpus import (DatasetSplit, LabeledText, LabelSpace, apportion, load_dataset,
                     stable_seed, stratified_split, stratified_subsample)
from .errors import CicleError, DataError, TransportError
from .evalreport import (CellMetrics, RunReport, build_report, cell_metrics, emit_report,
                         macro_f1, reduction_stats)
from .llm_client import LlmClient, LlmConfig, LlmResponse, PromptMeta, parse_label
from .pipeline import (DatasetSpec, PredictionRecord, RunConfig, classify_base, classify_cell,
                       classify_cicle, classify_fewshot, run_experiment)
from .prompting import DEFAULT_TEMPLATE, PromptStats, PromptTemplate, build_prompt
from .selection import ShotPool, ShotSet, select_dense, select_random, select_sparse
from .vectorize import (EmbeddingClient, EmbeddingConfig, TfidfModel, fit_tfidf, transform,
                        transform_many)

__version__ = "0.1.0"

__all__ = [
    "CellMetrics", "CicleError", "ConformalCalibration", "ConformalSet",
    "DatasetSpec", "DatasetSplit", "DataError", "DEFAULT_TEMPLATE", "EmbeddingClient",
    "EmbeddingConfig", "LabeledText", "LabelSpace", "LlmClient", "LlmConfig", "LlmResponse",
    "LogisticModel", "PredictionRecord", "PromptMeta", "PromptStats", "PromptTemplate",
    "RunConfig", "RunReport", "ShotPool", "ShotSet", "TfidfModel",
    "TrainConfig", "TransportError", "apportion", "build_prompt", "build_report",
    "calibrate", "calibration_from_scores", "cell_metrics", "classify_base",
    "classify_cell", "classify_cicle", "classify_fewshot", "emit_report", "fit_tfidf",
    "load_dataset", "macro_f1", "nll_and_grad", "parse_label", "predict_proba",
    "predict_set", "quantile_rank", "reduction_stats",
    "run_experiment", "select_dense", "select_random", "select_sparse", "stable_seed",
    "stratified_split", "stratified_subsample", "train", "transform", "transform_many",
]
