"""Few-shot univariate time series classification with meta-learned
convolutional embeddings, plus the 1NN baselines and rank statistics used to
compare them."""

__version__ = "0.1.0"
