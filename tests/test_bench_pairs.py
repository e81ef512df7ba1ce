import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(wall, rate, attempted=10, failed=0, sha="abc", lines=100):
    return {"attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}},
            "meta": {"git_sha": sha, "src_diffmod_lines": lines}}


BETTER = {"wall_s": "lower", "rate": "higher"}


def test_summary_counts_wins_in_each_direction_and_ties_for_neither():
    parent = [_run(2.0, 5.0), _run(3.0, 5.0), _run(4.0, 5.0), _run(1.0, 5.0)]
    change = [_run(1.0, 6.0), _run(3.0, 4.0), _run(2.0, 5.0), _run(1.5, 7.0)]
    entry = bench_pairs.summarize(parent, change, BETTER)
    assert entry["pairs"] == 4
    assert entry["change_wins"] == {"wall_s": 2, "rate": 2}


def test_first_run_wins_count_the_pairs_the_first_run_read_better():
    """Pair i runs the parent first when i is even and the change first
    when i is odd; a side that always reads faster wins half the pairs as
    the first run, and a first run that always reads faster wins all."""
    assert [bench_pairs.first_side(i) for i in range(4)] == \
        ["parent", "change", "parent", "change"]
    steady = bench_pairs.summarize([_run(2.0, 1.0)] * 4, [_run(1.0, 2.0)] * 4,
                                   BETTER)
    assert steady["change_wins"] == {"wall_s": 4, "rate": 4}
    assert steady["first_run_wins"] == {"wall_s": 2, "rate": 2}
    # the first run of each pair reads 1.0 s and 3/s, the second 2.0 s and
    # 2/s, except for a tie at 3/s in the last pair
    parent = [_run(1.0, 3.0), _run(2.0, 2.0), _run(1.0, 3.0), _run(2.0, 3.0)]
    change = [_run(2.0, 2.0), _run(1.0, 3.0), _run(2.0, 2.0), _run(1.0, 3.0)]
    biased = bench_pairs.summarize(parent, change, BETTER)
    assert biased["change_wins"] == {"wall_s": 2, "rate": 1}
    assert biased["first_run_wins"] == {"wall_s": 4, "rate": 3}


def test_summary_medians_quartiles_and_ratios():
    parent = [_run(v, 1.0, sha="p", lines=90) for v in (4.0, 1.0, 3.0, 2.0, 5.0)]
    change = [_run(v, 1.0, attempted=20, failed=1) for v in (1.0,) * 5]
    entry = bench_pairs.summarize(parent, change, BETTER)
    wall = entry["parent"]["wall_s"]
    assert wall["runs"] == [4.0, 1.0, 3.0, 2.0, 5.0]
    assert (wall["q1"], wall["median"], wall["q3"]) == (2.0, 3.0, 4.0)
    assert entry["median_ratio_change_over_parent"]["wall_s"] == round(1 / 3, 4)
    assert entry["parent"]["git_sha"] == "p"
    assert entry["parent"]["src_diffmod_lines"] == 90
    assert entry["change"]["executions"] == [20] * 5
    assert entry["change"]["fail_share"] == [0.05] * 5


def test_a_metric_whose_parent_spreads_past_its_bound_is_unresolved():
    """Parent wall_s quartiles 2.0-4.0 around a median of 3.0: a spread of
    0.67 of the median, past a 0.25 bound, so an overlapping change is
    unresolved; a change below every parent run is resolved all the same,
    and a metric without a bound never is unresolved."""
    parent = [_run(v, 5.0) for v in (4.0, 1.0, 3.0, 2.0, 5.0)]
    overlapping = [_run(v, 5.0) for v in (2.5, 3.5, 1.5, 2.0, 3.0)]
    below = [_run(0.5, 5.0)] * 5
    bounds = {"wall_s": 0.25, "rate": 0.25}
    assert bench_pairs.summarize(parent, overlapping, BETTER,
                                 bounds)["unresolved"] == ["wall_s"]
    assert bench_pairs.summarize(parent, below, BETTER,
                                 bounds)["unresolved"] == []
    assert bench_pairs.summarize(parent, overlapping, BETTER,
                                 {"wall_s": 0.7})["unresolved"] == []
    assert bench_pairs.summarize(parent, overlapping,
                                 BETTER)["unresolved"] == []


def test_summary_of_one_pair_and_unequal_sides():
    entry = bench_pairs.summarize([_run(2.0, 1.0)], [_run(1.0, 1.0)], BETTER)
    assert entry["parent"]["wall_s"]["q1"] == entry["parent"]["wall_s"]["q3"] == 2.0
    with pytest.raises(ValueError):
        bench_pairs.summarize([_run(1.0, 1.0)], [], BETTER)


def _stdout(correct):
    result = {"correct": correct, "attempted": 10, "failed": 0,
              "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    return "\n".join(["wall_s 1.0", 'meta {"git_sha": "abc"}',
                      json.dumps(result)]) + "\n"


def test_a_run_with_wrong_outputs_is_refused_naming_its_checkout():
    result = bench_pairs.parse_run(_stdout(True), Path("base"))
    assert result["meta"] == {"git_sha": "abc"}
    assert result["metrics"]["wall_s"]["value"] == 1.0
    for correct in (False, None, "true"):
        with pytest.raises(RuntimeError, match="in change "):
            bench_pairs.parse_run(_stdout(correct), Path("change"))
