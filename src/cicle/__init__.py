"""Conformal gating for in-context text classification.

A cheap TF-IDF + logistic-regression classifier drives split conformal
prediction; test items whose prediction set is a singleton skip the LLM
entirely, and the rest get a prompt restricted to the set's classes with a
few similar examples per class. Plain few-shot baselines, a mock-oracle LLM
client, an experiment runner and a reporting harness round out the toolkit.
Each name is imported from its own module, say ``cicle.pipeline``.
"""
