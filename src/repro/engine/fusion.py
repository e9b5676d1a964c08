"""Import stub left by the removed fused columnar tier.

``perfbench/tracing.py`` imports :class:`FusedChain` and wraps its
``run`` for the ``engine.fusion.*`` metrics, which now always read 0.
Nothing in ``repro`` imports this module; it goes once the benchmark
drops those metrics.
"""


class FusedChain:
    def run(self, batch):  # pragma: no cover - never called
        raise NotImplementedError("the fused columnar tier was removed")
