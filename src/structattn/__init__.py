"""Structured self-attentive sentence embeddings.

A biLSTM encoder pooled by multi-hop self-attention into an r-by-2u matrix
embedding, trained with a Frobenius-norm redundancy penalty, with dense,
pruned-structured, and gated pairwise classifier heads.
"""

from .attention import attend, mean_pairwise_overlap, overall_attention, penalty, pool
from .checks import grad_check
from .config import RunConfig, load_run_config
from .data import Vocab, build_vocab, load_dataset, load_pretrained
from .encoder import bilstm, embed
from .heads import gated_encode, mlp_forward, pruned_forward
from .model import Classifier, build_model, count_model_params, parameter_shapes
from .tensor import Tensor, no_grad
from .training import evaluate, train
