"""OmniMatch reproduction: review-based cross-domain cold-start recommendation.

From-scratch reproduction of *OmniMatch: Overcoming the Cold-Start Problem
in Cross-Domain Recommendations using Auxiliary Reviews* (EDBT 2025),
including the numpy autograd substrate (``repro.nn``), text processing
(``repro.text``), synthetic Amazon/Douban-style corpora (``repro.data``),
the OmniMatch model (``repro.core``), all six paper baselines
(``repro.baselines``), the evaluation harness (``repro.eval``), the
run-telemetry layer (``repro.obs``), and the encode-once serving engine
(``repro.serve``).

Quickstart::

    from repro.data import generate_scenario, cold_start_split
    from repro.core import OmniMatchTrainer, OmniMatchConfig, ColdStartPredictor

    dataset = generate_scenario("amazon", "books", "movies")
    split = cold_start_split(dataset, seed=0)
    result = OmniMatchTrainer(dataset, split, OmniMatchConfig()).fit()
    predictor = ColdStartPredictor(result)
"""

__version__ = "1.0.0"

import importlib

__all__ = [
    "nn", "text", "data", "core", "baselines", "eval", "obs", "serve",
    "__version__",
]

_SUBPACKAGES = frozenset(__all__) - {"__version__"}


def __getattr__(name):
    """Import a subpackage on first access (PEP 562): ``import repro.data``
    then pays for ``repro.data`` and what it imports, not for all eight."""
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
