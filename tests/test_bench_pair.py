"""The pairing and summary logic of ``tools/bench_pair.py``, on canned
``perfbench/run.py`` output: no worktree is made and nothing is timed."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# A zero noise floor: the gain verdict rests on the wins and the base's
# quartile spread alone.
NO_FLOOR = {"wall_s": 0.0, "peak_rss_mb": 0.0}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(wall, rss, correct=True, failed=0):
    """What ``run.py --trace 0`` prints: an env line, detail lines, then
    the result object."""
    env = {"nproc": 2, "blas_threads": 1, "OPENBLAS_NUM_THREADS": "1"}
    result = {"correct": correct, "attempted": 6, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return "\n".join([f"env {json.dumps(env)}", "detail wall_s 1.0 s", json.dumps(result)])


def test_a_result_line_is_parsed_with_its_env(tool):
    run = tool.parse_run(run_output(1.25, 300.0, correct=False, failed=2), 0)
    assert run == {"env": {"nproc": 2, "blas_threads": 1, "OPENBLAS_NUM_THREADS": "1"},
                   "correct": False, "attempted": 6, "failed": 2,
                   "metrics": {"wall_s": 1.25, "peak_rss_mb": 300.0}, "exit_code": 0}


@pytest.mark.parametrize("stdout, code", [
    ("env {}\nperfbench: no measurement completed", 1),
    ("", 2),
    (run_output(1.0, 1.0), 1),  # a result, but a failing exit code
])
def test_a_run_without_a_result_is_not_correct(tool, stdout, code):
    run = tool.parse_run(stdout, code)
    assert run["correct"] is False and run["metrics"] is None and run["exit_code"] == code


def test_pairs_alternate_which_side_runs_first(tool):
    assert [tool.pair_order(pair) for pair in range(4)] == [
        ("base", "head"), ("head", "base"), ("base", "head"), ("head", "base")]


def canned_runs(tool, walls):
    """Runs of ``walls`` = ``[(base, head), ...]`` wall times, one pair each."""
    runs = []
    for pair, (base, head) in enumerate(walls):
        for side, wall in (("base", base), ("head", head)):
            run = tool.parse_run(run_output(wall, 100.0 + (side == "head")), 0)
            run.update(pair=pair, side=side)
            runs.append(run)
    return runs


def test_summary_gives_medians_quartiles_and_wins(tool):
    runs = canned_runs(tool, [(1.0, 0.9), (1.2, 1.3), (1.1, 1.0), (1.4, 1.2), (1.3, 1.1)])
    summary = tool.summarize(runs, END_TO_END, NO_FLOOR)
    wall = summary["wall_s"]
    assert wall["pairs"] == 5 and wall["head_wins"] == 4
    assert wall["base"] == {"median": 1.2, "q1": pytest.approx(1.05), "q3": pytest.approx(1.35)}
    assert wall["head"]["median"] == 1.1
    assert wall["change"] == pytest.approx(1.1 / 1.2 - 1.0)
    assert wall["within_bound"] is True
    rss = summary["peak_rss_mb"]
    assert rss["head_wins"] == 0 and rss["change"] == pytest.approx(0.01)
    assert rss["within_bound"] is True and rss["unit"] == "MB"


def test_a_metric_beyond_its_bound_is_flagged(tool):
    summary = tool.summarize(canned_runs(tool, [(1.0, 1.3), (1.0, 1.3)]), END_TO_END,
                             NO_FLOOR)
    assert summary["wall_s"]["change"] == pytest.approx(0.3)
    assert summary["wall_s"]["within_bound"] is False


def test_a_pair_with_an_incorrect_run_does_not_count(tool):
    runs = canned_runs(tool, [(1.0, 0.5), (1.0, 2.0), (1.0, 0.9)])
    runs[1]["correct"] = False  # the first pair's head
    runs[4] = dict(tool.parse_run("", 1), pair=2, side="base")
    summary = tool.summarize(runs, END_TO_END, NO_FLOOR)
    assert summary["wall_s"]["pairs"] == 1
    assert summary["wall_s"]["base"]["median"] == 1.0
    assert summary["wall_s"]["head"]["median"] == 2.0
    assert summary["wall_s"]["head_wins"] == 0


def test_no_complete_pair_gives_no_change(tool):
    runs = canned_runs(tool, [(1.0, 0.5)])
    runs[0]["correct"] = False
    summary = tool.summarize(runs, END_TO_END, NO_FLOOR)
    assert summary["wall_s"]["pairs"] == 0
    assert summary["wall_s"]["change"] is None and summary["wall_s"]["within_bound"] is None
    assert summary["wall_s"]["gain"] is False and summary["wall_s"]["unresolved"] is None


WIDE = [1.0, 1.2, 1.4, 1.6, 1.8]  # median 1.4, q3 - q1 = 0.6: spread 0.43


@pytest.mark.parametrize("walls, incomplete, gain, unresolved", [
    ([(b, b - 0.2) for b in (1.0, 1.02, 1.01, 1.03, 1.0)], None, True, False),
    ([(b, b - 0.05) for b in WIDE], None, False, True),  # moved less than q3 - q1
    ([(b, 0.5) for b in WIDE], None, True, False),  # wide, but every head run is better
    ([(1.0, 0.9)] * 4 + [(1.0, 1.0)], None, False, False),  # a tie is not a win
    ([(1.0, 0.8)] * 5, 3, False, False),  # an incomplete pair is not won
], ids=["gain", "within-spread", "separated", "tie", "incomplete"])
def test_summary_states_the_gain_and_unresolved_verdicts(tool, walls, incomplete, gain,
                                                         unresolved):
    runs = canned_runs(tool, walls)
    if incomplete is not None:
        runs[2 * incomplete + 1]["correct"] = False
    summary = tool.summarize(runs, END_TO_END, NO_FLOOR)
    assert (summary["wall_s"]["gain"], summary["wall_s"]["unresolved"]) == (gain, unresolved)
    rss = summary["peak_rss_mb"]  # the head reads 1 MB more in every pair
    assert (rss["gain"], rss["unresolved"]) == (False, False)


def test_the_floor_is_the_larger_of_the_aa_change_and_the_aa_spread(tool):
    aa = {"workloads": {
        "moved": {"runs": canned_runs(tool, [(1.0, 1.1), (1.0, 1.1), (1.0, 1.1)])},
        "spread": {"runs": canned_runs(tool, [(b, b) for b in WIDE])}}}
    floors = tool.noise_floor(aa, END_TO_END)
    assert floors["moved"]["wall_s"] == pytest.approx(0.1)  # change 10 %, no spread
    assert floors["spread"]["wall_s"] == pytest.approx(0.6 / 1.4)  # no change
    assert floors["moved"]["peak_rss_mb"] == pytest.approx(0.01)


RECORDED = ["BENCH_26.json", "BENCH_27.json", "BENCH_28.json", "BENCH_30.json",
            "BENCH_31.json"]


def checked_in(name):
    """A JSON file at the root of the repository."""
    with open(TOOL_PATH.parents[1] / name, encoding="utf-8") as handle:
        return json.load(handle)


def recorded_summaries(tool, name, floors):
    """``{(workload, metric): summary}`` of a recorded report's runs, with
    ``floors`` as :func:`noise_floor` gives them."""
    end_to_end = checked_in("BENCHMARK.json")["end_to_end"]
    return {(workload, metric): summary
            for workload, entry in checked_in(name)["workloads"].items()
            for metric, summary in tool.summarize(entry["runs"], end_to_end,
                                                  floors[workload]).items()}


@pytest.fixture(scope="module")
def aa_floors(tool):
    return tool.noise_floor(checked_in("BENCH_AA.json"),
                            checked_in("BENCHMARK.json")["end_to_end"])


@pytest.mark.parametrize("name", RECORDED)
def test_no_recorded_change_reads_gain_above_the_aa_floor(tool, aa_floors, name):
    summaries = recorded_summaries(tool, name, aa_floors)
    assert [key for key, summary in summaries.items() if summary["gain"]] == []
    assert all(summary["floor"] == aa_floors[workload][metric]
               for (workload, metric), summary in summaries.items())


def test_the_floor_drops_the_gain_unchanged_code_showed(tool, aa_floors):
    key = ("caption_decode", "peak_rss_mb")
    zero = {workload: dict.fromkeys(metrics, 0.0) for workload, metrics in aa_floors.items()}
    without = recorded_summaries(tool, "BENCH_30.json", zero)[key]
    assert without["gain"] is True and -0.001 < without["change"] < 0  # -0.08 %
    assert recorded_summaries(tool, "BENCH_30.json", aa_floors)[key]["gain"] is False


def test_a_clear_effect_still_reads_gain_above_the_aa_floor(tool, aa_floors):
    # A 3 % drop in resident memory, about three times the A/A floor.
    runs = []
    for pair, base in enumerate([440.0, 441.0, 439.5, 440.5, 442.0] * 2):
        for side, rss in (("base", base), ("head", base * 0.97)):
            run = tool.parse_run(run_output(1.0, rss), 0)
            run.update(pair=pair, side=side)
            runs.append(run)
    rss = tool.summarize(runs, END_TO_END, aa_floors["attributes"])["peak_rss_mb"]
    assert rss["floor"] < 0.01 and rss["change"] == pytest.approx(-0.03)
    assert rss["gain"] is True
    # A metric without a floor reads no gain.
    assert tool.summarize(runs, END_TO_END, {})["peak_rss_mb"]["gain"] is False
