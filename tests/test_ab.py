"""The pair runner's verdicts and exit codes, on synthetic runs: no
benchmark runs here (see ``ab.py``)."""

import pytest

import ab

BOUND = 0.25


def _verdict(base, change, better="lower", claimed=False):
    return ab.verdict(base, change, better, BOUND, claimed)["verdict"]


BASE = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.05, 9.95]


def test_a_claim_won_in_every_pair_beyond_the_spread_is_met():
    row = ab.verdict(BASE, [v - 1.0 for v in BASE], "lower", BOUND, True)
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["verdict"] == "met"


def test_a_claim_won_in_eight_pairs_of_ten_is_not_met():
    change = [v - 1.0 for v in BASE[:8]] + [v + 1.0 for v in BASE[8:]]
    assert ab.verdict(BASE, change, "lower", BOUND, True)["wins"] == 8
    assert _verdict(BASE, change, claimed=True) == "not met"


def test_a_claim_inside_the_parents_spread_is_not_met():
    base = [10.0 + i for i in range(10)]  # quartiles 12.25 and 16.75
    change = [v - 0.5 for v in base]
    assert ab.verdict(base, change, "lower", BOUND, True)["wins"] == 10
    assert _verdict(base, change, claimed=True) == "not met"


@pytest.mark.parametrize("better, factor", [("lower", 1.3), ("higher", 0.7)])
def test_a_median_worse_beyond_the_bound_is_worse(better, factor):
    assert _verdict(BASE, [v * factor for v in BASE], better) == "worse"
    # inside the bound, with a narrow spread
    assert _verdict(BASE, [v * 1.2 for v in BASE], "lower") == "ok"


def test_a_spread_wider_than_the_bound_is_unresolved():
    base = [6.0, 14.0] * 5  # quartiles 6 and 14 about a median of 10
    assert _verdict(base, [v * 1.1 for v in base]) == "unresolved"
    # unless every change run beats every parent run
    assert _verdict(base, [5.0] * 10) == "ok"


def test_ties_count_for_neither_side():
    row = ab.verdict([1.0] * 10, [1.0] * 10, "higher", 0.15)
    assert row["wins"] == 0 and row["verdict"] == "ok"
    assert row["base"] == row["change"] == [1.0, 1.0, 1.0]


def _line(correct=True, failed=0):
    return {"correct": correct, "attempted": 20, "failed": failed,
            "metrics": {name: {"value": 1.0, "unit": ""} for name in (
                "ops_per_s", "op_p50_ms", "op_tail_ms", "verified_share",
                "setup_s", "peak_rss_mb")}}


@pytest.fixture
def fake_runs(monkeypatch):
    """The runs ``main`` makes, as (side, workload, seed), each returning
    the next of ``lines`` (a good line once they run out)."""
    made, lines = [], []
    monkeypatch.setattr(ab, "_tree", lambda directory, rev: True)

    def run(tree, workload, seed, seconds):
        made.append((tree.name, workload, seed))
        return lines.pop(0) if lines else _line()

    monkeypatch.setattr(ab, "_run", run)
    return made, lines


def test_pairs_alternate_the_side_that_runs_first(fake_runs, capsys):
    made, _ = fake_runs
    assert ab.main(["--base", "HEAD", "--workload", "cli", "--pairs", "3",
                    "--seed", "5", "--seconds", "1"]) == 0
    assert made == [("base", "cli", 5), ("change", "cli", 5),
                    ("change", "cli", 6), ("base", "cli", 6),
                    ("base", "cli", 7), ("change", "cli", 7)]
    assert "better in 0/3  ok" in capsys.readouterr().out


@pytest.mark.parametrize("line", [_line(correct=False), _line(failed=1)],
                         ids=["not-correct", "failed-ops"])
def test_a_bad_run_exits_1(fake_runs, line):
    _, lines = fake_runs
    lines.append(line)
    assert ab.main(["--base", "HEAD", "--workload", "inference-twoway",
                    "--pairs", "2", "--seconds", "1"]) == 1


def test_a_run_without_a_result_exits_2(monkeypatch):
    monkeypatch.setattr(ab, "_tree", lambda directory, rev: True)
    monkeypatch.setattr(ab, "_run", lambda *args: None)
    assert ab.main(["--base", "HEAD", "--workload", "cli", "--pairs",
                    "2"]) == 2
