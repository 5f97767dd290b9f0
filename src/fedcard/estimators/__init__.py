"""Cardinality estimators of the five cost-based federation engines.

Every float sum over a set of sources is a ``math.fsum``: it is exactly
rounded, so no estimate depends on the (hash-seeded) order of a frozenset.
"""

from __future__ import annotations

from typing import Sequence, Union

from ..store import TripleStore
from ..summaries import SummarySet
from .base import (
    ENGINE_NAMES,
    CardinalityEstimator,
    Engine,
    EstimationError,
    select_sources,
)
from .costfed import CostFedEstimator
from .lhd import LhdEstimator
from .odyssey import OdysseyEstimator
from .semagrow import SemaGrowEstimator
from .splendid import SplendidEstimator

_ESTIMATOR_CLASSES = {
    cls.engine: cls
    for cls in (
        CostFedEstimator,
        SplendidEstimator,
        LhdEstimator,
        SemaGrowEstimator,
        OdysseyEstimator,
    )
}


def make_estimator(
    engine: Union[Engine, str], summaries: SummarySet, stores: Sequence[TripleStore]
) -> CardinalityEstimator:
    if isinstance(engine, str):
        try:
            engine = Engine(engine.lower())
        except ValueError:
            raise ValueError(
                f"unknown engine {engine!r}; valid engines: {', '.join(ENGINE_NAMES)}"
            ) from None
    return _ESTIMATOR_CLASSES[engine](summaries, stores)


__all__ = [
    "ENGINE_NAMES",
    "CardinalityEstimator",
    "CostFedEstimator",
    "Engine",
    "EstimationError",
    "LhdEstimator",
    "OdysseyEstimator",
    "SemaGrowEstimator",
    "SplendidEstimator",
    "make_estimator",
    "select_sources",
]
