"""The benchmark's tracer sees the dichotomy probe as one nested call tree.

``bench/spans.py`` records spans on one stack for one thread, so every
traced (public) siolab function must run on the calling thread. The traced
run must also write the bytes of an untraced one.
"""

import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402


def test_traced_lab_mix_dichotomy_nests_its_spans_and_keeps_its_bytes(tmp_path):
    cli = run.import_cli()
    inv = next(i for i in run.WORKLOADS["lab-mix"].invocations if i.label == "dichotomy")
    _, plain, problem = run.invoke(cli, inv, 1, tmp_path / "plain")
    assert problem is None
    span_threads = set()

    def clock():  # the tracer reads its clock as each span begins and ends
        span_threads.add(threading.get_ident())
        return time.perf_counter()

    tracer = spans.Tracer(clock=clock)
    with spans.instrumented(tracer):
        _, traced, problem = run.invoke(cli, inv, 1, tmp_path / "traced")
    assert problem is None and traced == plain
    assert span_threads == {threading.get_ident()}
    names = [s.name for s in tracer.spans]
    assert names.count("toeplitz.dichotomy_probe") == 1
    assert names.count("toeplitz.finite_section") == 2 * 6
    for s in tracer.spans:
        assert s.start <= s.end, s.name
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (s.name, parent.name)
