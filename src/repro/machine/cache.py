"""Direct-mapped caches (the PA8000 used large off-chip direct-mapped
I and D caches; we scale capacities down to match our workloads' code
and data footprints — see DESIGN.md's substitution table)."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple


class DirectMappedCache:
    """A direct-mapped cache with byte-addressed lines."""

    __slots__ = ("line_bytes", "num_lines", "tags", "accesses", "misses", "_shift")

    def __init__(self, size_bytes: int, line_bytes: int = 32):
        if size_bytes <= 0 or line_bytes <= 0:
            raise ValueError("cache sizes must be positive")
        if size_bytes % line_bytes != 0:
            raise ValueError("cache size must be a multiple of the line size")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a power of two")
        self.line_bytes = line_bytes
        self.num_lines = size_bytes // line_bytes
        self.tags = [-1] * self.num_lines
        self.accesses = 0
        self.misses = 0
        self._shift = line_bytes.bit_length() - 1

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit."""
        self.accesses += 1
        line = addr >> self._shift
        index = line % self.num_lines
        if self.tags[index] == line:
            return True
        self.tags[index] = line
        self.misses += 1
        return False

    def line_slots(self, lines: Iterable[int]) -> Tuple[Tuple[int, int], ...]:
        """``(index, line)`` of each line number, for :meth:`touch_lines`."""
        return tuple((line % self.num_lines, line) for line in lines)

    def touch_lines(self, slots: Sequence[Tuple[int, int]], accesses: int) -> None:
        """Charge ``accesses`` accesses of one monotonic address run
        whose distinct lines, in order, are ``slots``.

        Each distinct line is looked up once (a monotonic run never
        returns to a line it left, so no other access can evict it
        first); every other access hits the line just touched.  Equals
        calling :meth:`access` on every address of the run.
        """
        self.accesses += accesses
        tags = self.tags
        for index, line in slots:
            if tags[index] != line:
                tags[index] = line
                self.misses += 1

    def access_all(self, addrs: Sequence[int], scale: int = 1) -> None:
        """:meth:`access` each ``addr * scale`` in order."""
        tags = self.tags
        shift = self._shift
        num_lines = self.num_lines
        misses = 0
        for addr in addrs:
            line = addr * scale >> shift
            index = line % num_lines
            if tags[index] != line:
                tags[index] = line
                misses += 1
        self.accesses += len(addrs)
        self.misses += misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.tags = [-1] * self.num_lines
        self.accesses = 0
        self.misses = 0
