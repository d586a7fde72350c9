"""Application-facing distributed shared memory: programs, runtime, app contract."""

from .app import AppInstance, AppValidator, AppVerdict
from .program import ProcessContext, ProgramFn, Read, Write
from .runtime import DSMRuntime

__all__ = [
    "AppInstance",
    "AppValidator",
    "AppVerdict",
    "DSMRuntime",
    "ProcessContext",
    "ProgramFn",
    "Read",
    "Write",
]
