"""Dynamic-search ranking with a reinforcement-trained recurrent value network."""

__version__ = "0.1.0"

from dynrank.embedspace import EmbeddedCorpus, cosine, embed_text, mean_vectors
from dynrank.metrics import (
    JudgmentSet,
    MetricSpec,
    RankedList,
    alpha_dcg_at_k,
    alpha_ndcg_at_k,
    dcg_at_k,
    doc_relevance,
    ndcg_at_k,
    session_ndcg,
)
from dynrank.valuenet import NetConfig, ValueNetParams, init_glorot
from dynrank.policy import PolicyConfig, SessionState
from dynrank.feedback import FeedbackRecord, RocchioParams, rocchio_embed, simulate_feedback
from dynrank.data import Dataset, gen_synthetic, load_letor, load_trec_dd, split_folds

__all__ = [
    "EmbeddedCorpus",
    "cosine",
    "embed_text",
    "mean_vectors",
    "JudgmentSet",
    "MetricSpec",
    "RankedList",
    "alpha_dcg_at_k",
    "alpha_ndcg_at_k",
    "dcg_at_k",
    "doc_relevance",
    "ndcg_at_k",
    "session_ndcg",
    "NetConfig",
    "ValueNetParams",
    "init_glorot",
    "PolicyConfig",
    "SessionState",
    "FeedbackRecord",
    "RocchioParams",
    "rocchio_embed",
    "simulate_feedback",
    "Dataset",
    "gen_synthetic",
    "load_letor",
    "load_trec_dd",
    "split_folds",
]
