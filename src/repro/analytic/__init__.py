"""Closed-form models from the paper's motivation section."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BatchingOutcome": ".batching_model",
    "ScenarioParams": ".batching_model",
    "compare": ".batching_model",
    "simulate_batched": ".batching_model",
    "simulate_unbatched": ".batching_model",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
