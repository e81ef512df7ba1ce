"""Tests of the benchmark's tracer and of one of its references.

Run with `PYTHONPATH=src python -m pytest -q perfbench` from the repo root.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from diffmod import janet, ops, syzygy                      # noqa: E402
from diffmod.dsl import elaborate, parse_system             # noqa: E402
from tracer import Tracer                                   # noqa: E402
from workloads import macaulay_counts                       # noqa: E402


def _gradient_system():
    """d1(y) = u, d2(y) = v: one CC, only y itself is parametric."""
    _, A, _ = elaborate(parse_system(
        "vars x1, x2;\nunknowns y;\nP: d1(y) = u;\nQ: d2(y) = v;\n"))
    return A


def _traced_cc():
    A = _gradient_system()
    tracer = Tracer()
    with tracer:
        tracer.begin_op(0)
        cc = syzygy.compatibility_conditions(A)
    return tracer, cc


def test_compatibility_conditions_records_nested_complete_spans():
    # syzygy imports `complete` by name; only the rebinding puts its
    # internal calls inside spans
    tracer, cc = _traced_cc()
    assert cc.rows == 1
    spans = tracer.spans()
    outer = {i for i, s in enumerate(spans) if s[0] == "syzygy"}
    nested = [s for s in spans if s[0] == "janet.complete" and s[3] in outer]
    assert nested
    assert all(s[4] == 0 for s in spans)


def test_uninstall_restores_every_callable():
    originals = (janet.complete, syzygy.complete, ops.ScalarOp.__mul__)
    _traced_cc()
    assert (janet.complete, syzygy.complete, ops.ScalarOp.__mul__) == originals
    assert syzygy.complete is janet.complete


def test_self_times_add_up_to_the_root_span():
    tracer, _ = _traced_cc()
    spans = tracer.spans()
    roots = [s for s in spans if s[3] == -1]
    assert len(roots) == 1
    root = roots[0]
    assert abs(sum(tracer.self_times()) - (root[2] - root[1])) < 1e-6
    assert min(tracer.self_times()) > -1e-9


def test_macaulay_reference_counts_parametric_derivatives():
    # only y is parametric: the cumulative count stays 1 at every order
    assert macaulay_counts(_gradient_system(), 6) == [1, 1, 1, 1, 1]
