"""Simulation-ID assignment.

The sequential namer emits zero-padded decimal IDs with an optional prefix.
All IDs in one sweep share the same width, so lexicographic order equals
numeric order and shell globs over output files sort sanely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .errors import NamerExhaustedError

__all__ = ["NamerConfig", "SequentialNamer"]

_PREFIX_RE = re.compile(r"[A-Za-z0-9_.-]*\Z")


@dataclass(frozen=True)
class NamerConfig:
    start_index: int = 0
    min_width: int = 1
    prefix: str = ""

    def __post_init__(self):
        if self.start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {self.start_index}")
        if self.min_width < 1:
            raise ValueError(f"min_width must be >= 1, got {self.min_width}")
        if not _PREFIX_RE.match(self.prefix):
            raise ValueError(
                f"prefix {self.prefix!r} contains characters outside [A-Za-z0-9_.-]"
            )


class SequentialNamer:
    """Yields exactly `total` IDs: prefix + zero-padded (start_index + k).

    Pad width is max(min_width, digits of the last index). Iterating stops
    after `total` IDs; calling next_id() beyond that raises
    NamerExhaustedError.
    """

    def __init__(self, config: NamerConfig, total: int):
        if total < 1:
            raise ValueError(f"total must be >= 1, got {total}")
        self.config = config
        self.total = total
        self.width = max(config.min_width, len(str(config.start_index + total - 1)))
        self._emitted = 0

    def next_id(self) -> str:
        if self._emitted >= self.total:
            raise NamerExhaustedError(f"namer was sized for {self.total} IDs")
        index = self.config.start_index + self._emitted
        self._emitted += 1
        return f"{self.config.prefix}{index:0{self.width}d}"

    def __iter__(self) -> Iterator[str]:
        while self._emitted < self.total:
            yield self.next_id()
