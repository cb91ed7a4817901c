"""Structured self-attentive sentence embeddings.

A biLSTM encoder pooled by multi-hop self-attention into an r-by-2u matrix
embedding, trained with a Frobenius-norm redundancy penalty, with dense,
pruned-structured, and gated pairwise classifier heads.
"""
