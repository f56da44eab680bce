"""The bench-history tool: cumulative perf trajectory + regression gate."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOL = REPO_ROOT / "tools" / "bench_history.py"

spec = importlib.util.spec_from_file_location("bench_history", TOOL)
bench_history = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_history)


def _record(path, benchmark, **fields):
    document = {"benchmark": benchmark}
    document.update(fields)
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


class TestAppend:
    def test_first_entry_always_passes_and_creates_history(self, tmp_path):
        record = _record(
            tmp_path / "sweep.json",
            "E12-incremental-maxsat-sweep",
            speedup_vs_cold=12.0,
        )
        history = tmp_path / "history.json"
        code = bench_history.main([str(record), "--history", str(history)])
        assert code == 0
        entries = json.loads(history.read_text())["E12-incremental-maxsat-sweep"]
        assert len(entries) == 1
        assert entries[0]["headline"] == 12.0
        assert entries[0]["record"]["speedup_vs_cold"] == 12.0

    def test_all_benchmark_families_are_tracked(self, tmp_path):
        history = tmp_path / "history.json"
        records = [
            _record(tmp_path / "sweep.json",
                    "E12-incremental-maxsat-sweep", speedup_vs_cold=10.0),
            _record(tmp_path / "campaign.json",
                    "E13-campaign-resume-overhead", resume_speedup=40.0),
            _record(tmp_path / "monitor.json",
                    "E14-live-monitor-updates", speedup_vs_cold=14.0),
            _record(tmp_path / "kernels.json",
                    "E15-kernel-batch-bdd-eval", numpy_speedup_vs_scalar=15.0),
            _record(tmp_path / "rerank.json",
                    "E16-maxsat-warm-solve-loop", loop_scenarios_per_s=600.0),
        ]
        code = bench_history.main(
            [str(path) for path in records] + ["--history", str(history)]
        )
        assert code == 0
        document = json.loads(history.read_text())
        assert set(document) == set(bench_history.HEADLINE_METRICS)
        assert [entries[-1]["headline"] for entries in document.values()] == [
            10.0, 40.0, 14.0, 15.0, 600.0
        ]

    def test_entries_accumulate_newest_last(self, tmp_path):
        history = tmp_path / "history.json"
        for speedup in (10.0, 11.0, 9.0):
            record = _record(
                tmp_path / "sweep.json",
                "E12-incremental-maxsat-sweep",
                speedup_vs_cold=speedup,
            )
            assert bench_history.main(
                [str(record), "--history", str(history), "--label", f"run-{speedup}"]
            ) == 0
        entries = json.loads(history.read_text())["E12-incremental-maxsat-sweep"]
        assert [entry["headline"] for entry in entries] == [10.0, 11.0, 9.0]
        assert entries[-1]["label"] == "run-9.0"

    def test_missing_records_are_a_noop(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert bench_history.main(["--history", str(tmp_path / "h.json")]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert not (tmp_path / "h.json").exists()

    def test_env_var_records_are_probed_when_no_paths_given(
        self, tmp_path, monkeypatch
    ):
        record = _record(
            tmp_path / "monitor.json",
            "E14-live-monitor-updates",
            speedup_vs_cold=14.0,
        )
        monkeypatch.setenv("BENCH_MONITOR_JSON", str(record))
        monkeypatch.delenv("BENCH_SWEEP_JSON", raising=False)
        monkeypatch.delenv("BENCH_CAMPAIGN_JSON", raising=False)
        monkeypatch.chdir(tmp_path)
        history = tmp_path / "history.json"
        assert bench_history.main(["--history", str(history)]) == 0
        assert "E14-live-monitor-updates" in json.loads(history.read_text())


class TestRegressionGate:
    def _run(self, tmp_path, speedup, history):
        record = _record(
            tmp_path / "monitor.json",
            "E14-live-monitor-updates",
            speedup_vs_cold=speedup,
        )
        return bench_history.main([str(record), "--history", str(history)])

    def test_drop_over_the_budget_fails(self, tmp_path, capsys):
        history = tmp_path / "history.json"
        assert self._run(tmp_path, 10.0, history) == 0
        assert self._run(tmp_path, 6.0, history) == 1  # -40% > 30% budget
        assert "REGRESSION" in capsys.readouterr().err

    def test_drop_within_the_budget_passes(self, tmp_path):
        history = tmp_path / "history.json"
        assert self._run(tmp_path, 10.0, history) == 0
        assert self._run(tmp_path, 7.5, history) == 0  # -25% < 30% budget

    def test_failing_entry_is_still_recorded(self, tmp_path):
        """The trajectory keeps the bad data point; only the exit code fails."""
        history = tmp_path / "history.json"
        assert self._run(tmp_path, 10.0, history) == 0
        assert self._run(tmp_path, 1.0, history) == 1
        entries = json.loads(history.read_text())["E14-live-monitor-updates"]
        assert [entry["headline"] for entry in entries] == [10.0, 1.0]

    def test_comparison_is_against_the_previous_entry_not_the_best(
        self, tmp_path
    ):
        history = tmp_path / "history.json"
        assert self._run(tmp_path, 20.0, history) == 0
        assert self._run(tmp_path, 15.0, history) == 0  # -25%, passes
        # -26% vs previous (15.0) passes even though it is -45% vs the best.
        assert self._run(tmp_path, 11.0, history) == 0

    def test_custom_budget_is_honoured(self, tmp_path):
        history = tmp_path / "history.json"
        record = _record(
            tmp_path / "monitor.json",
            "E14-live-monitor-updates",
            speedup_vs_cold=10.0,
        )
        assert bench_history.main([str(record), "--history", str(history)]) == 0
        record = _record(
            tmp_path / "monitor.json",
            "E14-live-monitor-updates",
            speedup_vs_cold=9.0,
        )
        assert bench_history.main(
            [str(record), "--history", str(history), "--max-regression", "0.05"]
        ) == 1

    def test_unknown_benchmark_has_no_headline_and_never_fails(self, tmp_path):
        history = tmp_path / "history.json"
        for _ in range(2):
            record = _record(
                tmp_path / "novel.json", "E99-novel", wall_clock_s=1.0
            )
            assert bench_history.main(
                [str(record), "--history", str(history)]
            ) == 0
        entries = json.loads(history.read_text())["E99-novel"]
        assert [entry["headline"] for entry in entries] == [None, None]


class TestBadInput:
    def test_non_record_json_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        code = bench_history.main(
            [str(path), "--history", str(tmp_path / "h.json")]
        )
        assert code == 1
        assert "benchmark" in capsys.readouterr().err

    def test_corrupt_history_fails_cleanly(self, tmp_path, capsys):
        record = _record(
            tmp_path / "monitor.json",
            "E14-live-monitor-updates",
            speedup_vs_cold=10.0,
        )
        history = tmp_path / "history.json"
        history.write_text("{not json", encoding="utf-8")
        assert bench_history.main(
            [str(record), "--history", str(history)]
        ) == 1
        assert "bench_history:" in capsys.readouterr().err
