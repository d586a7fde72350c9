"""Consistency checkers for the criteria discussed in the paper."""

from .atomic import AtomicChecker, real_time_order
from .base import CheckResult, ConsistencyChecker, PerProcessChecker
from .criteria import (
    CausalChecker,
    LazyCausalChecker,
    LazySemiCausalChecker,
    PRAMChecker,
    SlowChecker,
)
from .incremental import (
    CheckPolicy,
    IncrementalChecker,
    WindowedChecker,
    WindowMetrics,
    incremental_checker,
)
from .registry import CRITERIA, IMPLIES, all_checkers, get_checker, implied_criteria
from .sequential import SequentialChecker

__all__ = [
    "AtomicChecker",
    "CRITERIA",
    "CausalChecker",
    "CheckPolicy",
    "CheckResult",
    "ConsistencyChecker",
    "IMPLIES",
    "IncrementalChecker",
    "WindowedChecker",
    "WindowMetrics",
    "incremental_checker",
    "LazyCausalChecker",
    "LazySemiCausalChecker",
    "PRAMChecker",
    "PerProcessChecker",
    "SequentialChecker",
    "SlowChecker",
    "all_checkers",
    "get_checker",
    "implied_criteria",
    "real_time_order",
]
