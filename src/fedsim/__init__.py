"""Deterministic federated-learning simulator: poisoning attacks, full
training history, and post-detection model recovery with cost accounting.
"""

__version__ = "0.1.0"
