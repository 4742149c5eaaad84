"""The traced benchmark still finds every attribute it wraps.

`python3 bench/run.py --trace 1` replaces module attributes of sectorflow
with timing wrappers, so a rename inside the package would only surface
there. Here each workload's install_trace gets a tracer that records what
it is asked to wrap instead of wrapping it.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


class RecordingTracer:
    def __init__(self):
        self.installed = []

    def install(self, module, attr, name, count_only=False):
        self.installed.append((module, attr, name))


def test_traced_benchmark_wraps_existing_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    installed = []
    for cls in workloads.WORKLOADS.values():
        tracer = RecordingTracer()
        cls(None).install_trace(tracer)
        installed += tracer.installed
    assert installed
    for module, attr, name in installed:
        assert callable(getattr(module, attr, None)), "%s: %s.%s is gone" % (
            name,
            module.__name__,
            attr,
        )
