"""Counter gates for the columnar dominance hot path.

Wall time is hardware-noisy, so the gates that must hold everywhere are
deterministic: :meth:`CandidateBlock.skyline` (EDC's refine step)
answers the same skyline as the scalar SFS reference with a small
fraction of the interpreter-level operations (function/builtin calls
counted by ``sys.setprofile``) the scalar path spends, and a
:class:`SkylineBlock` probe executes no more bytecodes against a
1,024-row block than against an 8-row one (counted by ``sys.settrace``
with ``f_trace_opcodes``).  Timing is reported as extra info but never
asserted.
"""

from __future__ import annotations

import random
import sys
import time

from repro.columnar.store import CandidateBlock, SkylineBlock

from reference_dominance import sfs_skyline_progressive


def _profiled(fn):
    """(result, python-level events, seconds) for one call of ``fn``."""
    events = 0

    def tracer(frame, event, arg):
        nonlocal events
        if event in ("call", "c_call"):
            events += 1

    start = time.perf_counter()
    sys.setprofile(tracer)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, events, time.perf_counter() - start


class TestDominanceKernelOps:
    def test_block_path_spends_far_fewer_interpreter_ops(self):
        rng = random.Random(42)
        vectors = [
            tuple(rng.randrange(16) / 16 for _ in range(5)) for _ in range(600)
        ]
        candidates = CandidateBlock(5)
        for object_id, vector in enumerate(vectors):
            candidates.add(object_id, vector)

        scalar, scalar_events, scalar_s = _profiled(
            lambda: list(sfs_skyline_progressive(vectors, None))
        )
        block, block_events, block_s = _profiled(candidates.skyline)

        # Bit-identical answer, in the same confirmation order.
        assert block == scalar
        # The whole point of the columnar plane: per-candidate work is
        # flat-buffer arithmetic, not function dispatch.  The scalar
        # path pays at least one dominates() call per (candidate,
        # skyline-member) pair; the block path a handful of calls per
        # *block*.
        assert block_events < scalar_events / 5, (
            f"block path spent {block_events} interpreter events vs "
            f"scalar {scalar_events}"
        )
        print(
            f"\ncolumnar dominance: events {scalar_events} -> {block_events} "
            f"({block_events / scalar_events:.1%}), "
            f"time {scalar_s * 1e3:.1f}ms -> {block_s * 1e3:.1f}ms (advisory)"
        )


def _bytecodes(fn) -> int:
    """Bytecodes executed by the Python frames of one call of ``fn``.

    Counts differ between interpreter versions, so compare them only
    within one run.
    """
    executed = 0

    def tracer(frame, event, arg):
        nonlocal executed
        frame.f_trace_opcodes = True
        if event == "opcode":
            executed += 1
        return tracer

    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(None)
    return executed


class TestDominanceIndexBytecodes:
    SIZES = (8, 64, 512, 1024)

    @staticmethod
    def _block(rows: int) -> SkylineBlock:
        """A ``rows``-point skyline in four dimensions, built by appends."""
        sky = SkylineBlock(4)
        for r in range(rows):
            t = (r + 1) / (rows + 1)
            sky.append((t, 1.0 - t, t * t, 1.0 - t * t))
        return sky

    def test_probe_bytecodes_do_not_grow_with_block_size(self):
        probes = {
            "dominated": (2.0, 2.0, 2.0, 2.0),
            "undominated": (0.0, 0.0, 0.0, 0.0),
        }
        counts = {name: [] for name in probes}
        for rows in self.SIZES:
            sky = self._block(rows)
            for name, probe in probes.items():
                verdict = []
                counts[name].append(
                    _bytecodes(lambda: verdict.append(sky.dominates(probe)))
                )
                assert verdict == [name == "dominated"]
        for name, per_size in counts.items():
            # The index answers from bisects and integer masks; a row
            # scan's bytecodes grow linearly with the rows.
            assert per_size[-1] <= per_size[0], (
                f"{name} probe: {per_size} bytecodes at {self.SIZES} rows"
            )
        print(f"\nindex probe bytecodes at {self.SIZES} rows: {counts}")
