"""The benchmark's tracer sees each workload invocation as one nested call tree.

``bench/spans.py`` records spans on one stack for one thread, so every
traced (public) siolab function must run on the calling thread. ``cli.main``
builds each command's report once, through one ``ReportBundle.write``. The
traced run must also write the bytes of an untraced one.
"""

import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

INVOCATIONS = [pytest.param(inv, id=f"{name}-{inv.label}")
               for name, workload in run.WORKLOADS.items() for inv in workload.invocations]


@pytest.mark.parametrize("inv", INVOCATIONS)
def test_traced_invocation_nests_its_spans_and_keeps_its_bytes(tmp_path, inv):
    cli = run.import_cli()
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
    assert names.count("cli.main") == 1
    assert names.count("cli.ReportBundle.write") == 1
    if inv.label == "dichotomy":
        assert names.count("toeplitz.dichotomy_probe") == 1
        assert names.count("toeplitz.finite_section") == 2 * 6
    for s in tracer.spans:
        assert s.start <= s.end, s.name
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (s.name, parent.name)
