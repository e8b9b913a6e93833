"""Program-side helpers shared by the benchmark's worker and daemon
processes (these import ``repro``; ``common`` does not)."""

from __future__ import annotations

from typing import Dict

from common import GATE, BenchError


def install_fixture_guard() -> None:
    """Make any characterization-cache miss fail loudly.

    Every run starts from the committed fixture; a cache-key change must
    surface as an error naming the regenerate command, never as a
    silent multi-minute characterization inside ``setup_s``.
    """
    from repro.charlib.cache import CharacterizationCache

    original = CharacterizationCache.get_or_compute

    def guarded(self, kind, key, compute, **kwargs):
        def refuse():
            raise BenchError(
                f"characterization cache miss for a {kind!r} entry: the "
                f"fixture no longer matches the program's cache keys; "
                f"regenerate it with `python3 perfbench/make_fixture.py`")
        return original(self, kind, key, refuse, **kwargs)

    CharacterizationCache.get_or_compute = guarded


def build_gate():
    from repro.serve.protocol import build_gate as build
    return build(GATE["gate"], GATE["process"], GATE["load"])


def edges_of(query) -> Dict[str, object]:
    """A query tuple ``(direction, ((pin, at, tau), ...))`` as edges."""
    from repro.waveform import Edge
    direction, edges = query
    return {pin: Edge(direction, at, tau) for pin, at, tau in edges}

