"""OpenKMC-style baseline engine and the Table 1 memory models."""

from .memory_model import (
    MB,
    format_table,
    openkmc_memory_model,
    tensorkmc_memory_model,
)
from .openkmc import OpenKMCEngine

__all__ = [
    "MB",
    "format_table",
    "openkmc_memory_model",
    "tensorkmc_memory_model",
    "OpenKMCEngine",
]
