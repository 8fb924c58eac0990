"""CLI tests: `python -m repro` list/show/run plus staged artifacts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.scenarios import Scenario

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestList:
    def test_lists_registered_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig5", "fig8-models", "sensitivity", "table1"):
            assert name in out

    def test_kind_filter(self, capsys):
        assert main(["list", "--kind", "table"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig5 " not in out

    def test_unknown_kind_is_an_error(self, capsys):
        assert main(["list", "--kind", "nope"]) == 1


class TestShow:
    def test_spec_json_round_trips(self, capsys):
        assert main(["show", "fig5"]) == 0
        data = json.loads(capsys.readouterr().out)
        scenario = Scenario.from_dict(data)
        assert scenario.name == "fig5"

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["show", "fig99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestRun:
    def test_point_scenario(self, capsys):
        assert main(["run", "quickstart-training"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_table_scenario(self, capsys):
        assert main(["run", "fig3c-blade-spec"]) == 0
        assert "No. of SPUs" in capsys.readouterr().out


class TestRunCaching:
    def test_second_run_served_from_store(self, capsys, isolated_cache_dir):
        assert main(["run", "fig7-gpu"]) == 0
        first = capsys.readouterr()
        assert "served from result store" not in first.err

        assert main(["run", "fig7-gpu"]) == 0
        second = capsys.readouterr()
        assert "served from result store" in second.err
        assert second.out == first.out

    def test_no_cache_bypasses_store(self, capsys, isolated_cache_dir):
        assert main(["run", "fig7-gpu", "--no-cache"]) == 0
        assert not list(isolated_cache_dir.glob("*.json"))
        assert main(["run", "fig7-gpu", "--no-cache"]) == 0
        assert "served from result store" not in capsys.readouterr().err

    def test_cache_dir_flag_overrides_env(self, capsys, tmp_path):
        cache_dir = tmp_path / "explicit"
        assert main(["run", "fig7-gpu", "--cache-dir", str(cache_dir)]) == 0
        assert len(list(cache_dir.glob("*.json"))) == 1

    def test_run_user_scenario_file(self, capsys, tmp_path):
        from repro import scenarios

        path = tmp_path / "my_scenario.json"
        path.write_text(scenarios.get("fig7-gpu").to_json())
        assert main(["run", str(path)]) == 0
        assert "latency" in capsys.readouterr().out

    def test_user_file_shares_registry_content_address(
        self, capsys, tmp_path
    ):
        from repro import scenarios

        assert main(["run", "fig7-gpu"]) == 0
        capsys.readouterr()
        path = tmp_path / "same_spec.json"
        path.write_text(scenarios.get("fig7-gpu").to_json())
        assert main(["run", str(path)]) == 0
        assert "served from result store" in capsys.readouterr().err

    def test_bad_scenario_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{]")
        assert main(["run", str(path)]) == 2
        assert "not a scenario" in capsys.readouterr().err

        # A well-formed spec whose decomposition cannot be mapped fails
        # only once computed, and is still the user's error.
        from repro import scenarios

        spec = scenarios.get("fig7-gpu").to_dict()
        spec["parallel"] = {"tensor_parallel": 128}
        path = tmp_path / "unmappable.json"
        path.write_text(json.dumps(spec))
        assert main(["run", str(path), "--no-cache"]) == 2
        assert "does not match 64 accelerators" in capsys.readouterr().err

        # A grid cell of the wrong type is rejected before any compute.
        spec = scenarios.get("fig7-bandwidth").to_dict()
        spec["grid"]["rows"][0] = ["x"]
        path = tmp_path / "wrong_cell.json"
        path.write_text(json.dumps(spec))
        assert main(["run", str(path), "--no-cache"]) == 2
        assert "system.dram_bandwidth_tbps" in capsys.readouterr().err

    def test_cached_artifacts_byte_identical(self, tmp_path):
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        assert main(["run", "fig6", "--out", str(cold_dir)]) == 0
        assert main(["run", "fig6", "--out", str(warm_dir)]) == 0
        names = sorted(p.name for p in cold_dir.iterdir())
        assert names == sorted(p.name for p in warm_dir.iterdir())
        for name in names:
            assert (cold_dir / name).read_bytes() == (
                warm_dir / name
            ).read_bytes()


class TestRunAll:
    def test_run_all_tables(self, capsys, isolated_cache_dir):
        assert main(["run-all", "--kind", "table"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig2b-datalink", "fig3c-blade-spec", "pcl-flow"):
            assert name in out
        assert "4 computed" in out

        assert main(["run-all", "--kind", "table"]) == 0
        out = capsys.readouterr().out
        assert "4 from store" in out
        assert "store hit rate 100%" in out

    def test_run_all_unknown_kind(self, capsys):
        assert main(["run-all", "--kind", "nope"]) == 1

    def test_run_all_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        assert main(["run-all", "--kind", "table", "--out", str(out_dir)]) == 0
        assert (out_dir / "table1.txt").is_file()
        assert (out_dir / "table1_raw.json").is_file()


class TestCacheCommands:
    def test_stats_and_clear(self, capsys, isolated_cache_dir):
        assert main(["run", "fig7-gpu"]) == 0
        capsys.readouterr()

        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries        1" in out
        assert "fig7-gpu" in out
        assert str(isolated_cache_dir) in out

        assert main(["cache", "clear"]) == 0
        assert "removed 1 cached result(s)" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries        0" in capsys.readouterr().out

    def test_stats_on_missing_dir_is_a_structured_error(
        self, capsys, tmp_path
    ):
        """A missing cache dir exits non-zero with a structured message —
        never a silent zero count, never a traceback."""
        missing = tmp_path / "nope"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: cache-dir-missing" in captured.err
        assert str(missing) in captured.err

    def test_stats_on_never_created_default_dir_is_an_empty_store(
        self, capsys, tmp_path, monkeypatch
    ):
        """Fresh install, nothing cached: the *default* location simply
        does not exist yet — that is an empty store, not a wrong mount."""
        from repro.scenarios.store import CACHE_DIR_ENV

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("HOME", str(tmp_path / "fresh-home"))
        assert main(["cache", "stats"]) == 0
        assert "entries        0" in capsys.readouterr().out

    def test_stats_on_unreadable_dir_is_a_structured_error(
        self, capsys, tmp_path
    ):
        """A cache 'dir' that is a file exits non-zero, structured."""
        bogus = tmp_path / "actually-a-file"
        bogus.write_text("not a directory")
        assert main(["cache", "stats", "--cache-dir", str(bogus)]) == 2
        assert "error: cache-dir-unreadable" in capsys.readouterr().err

    def test_stats_age_dates_entries(self, capsys, isolated_cache_dir):
        assert main(["run", "fig3c-blade-spec"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "s old" in out  # provenance-stamped moments ago

    def test_stats_age_dates_pre_provenance_entries_as_oldest(
        self, capsys, isolated_cache_dir
    ):
        from repro.scenarios import ResultStore, get
        from tests.scenarios.test_backends import restamp

        assert main(["run", "fig3c-blade-spec"]) == 0
        capsys.readouterr()
        restamp(ResultStore(isolated_cache_dir), get("fig3c-blade-spec"), None)

        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "pre-prov" in out
        assert "entries        1" in out  # valid, not corrupt


class TestCacheUrlFlag:
    """`--cache URL` backend addressing (`--cache-dir` is its second
    spelling)."""

    def test_tiered_cache_url_serves_from_the_file_tier(
        self, capsys, tmp_path
    ):
        cache_dir = tmp_path / "c"
        assert main(
            ["run", "fig3c-blade-spec", "--cache-dir", str(cache_dir)]
        ) == 0
        first = capsys.readouterr()
        assert main(
            ["run", "fig3c-blade-spec", "--cache", f"mem://,file://{cache_dir}"]
        ) == 0
        second = capsys.readouterr()
        assert "served from result store" in second.err
        assert second.out == first.out

    @pytest.mark.parametrize(
        "url, error",
        [
            pytest.param(url, f"unknown store-URL {error}", id=url)
            for url, error in (
                ("s3://x", "scheme"),
                ("http://h:1", "scheme"),
                ("https://h", "scheme"),
                ("ring://a;b", "scheme"),
                ("ro:///x", "scheme"),
                ("file:///x?shard=1", "parameter"),
                ("mem://,file:///x?write=all", "parameter"),
            )
        ],
    )
    def test_bad_cache_url_exits_2(self, capsys, url, error):
        assert main(["run", "fig3c-blade-spec", "--cache", url]) == 2
        assert error in capsys.readouterr().err

    def test_cache_stats_reports_tiers_and_age_summary(
        self, capsys, tmp_path
    ):
        cache_dir = tmp_path / "c"
        assert main(["run", "fig3c-blade-spec", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(
            ["cache", "stats", "--cache", f"mem://,file://{cache_dir}"]
        ) == 0
        out = capsys.readouterr().out
        assert f"backend        mem://,file://{cache_dir}" in out
        assert "tier         mem://" in out
        assert f"tier         file://{cache_dir}" in out
        assert "oldest created" in out
        assert "median created" in out
        assert "pre-provenance 0" in out

    def test_serve_accepts_cache_url_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cache", "mem://,file:///tmp/x"]
        )
        assert args.cache == "mem://,file:///tmp/x"

    def test_serve_has_no_trust_puts_flag(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["serve", "--port", "0", "--trust-puts"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --trust-puts" in capsys.readouterr().err


class TestCacheGc:
    def test_gc_without_caps_is_an_error(self, capsys):
        assert main(["cache", "gc"]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_gc_evicts_least_recently_used(self, capsys, isolated_cache_dir):
        import time as _time

        # File mtimes tick on the kernel's coarse clock; space the ops so
        # the LRU order is unambiguous.
        assert main(["run", "fig3c-blade-spec"]) == 0
        _time.sleep(0.05)
        assert main(["run", "table1"]) == 0
        _time.sleep(0.05)
        assert main(["run", "fig3c-blade-spec"]) == 0  # refresh its LRU slot
        capsys.readouterr()

        assert main(["cache", "gc", "--max-entries", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted 1 entry" in out

        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries        1" in out
        assert "fig3c-blade-spec" in out  # the recently-used one survived
        assert "table1" not in out

    def test_gc_max_bytes(self, capsys, isolated_cache_dir):
        assert main(["run", "fig3c-blade-spec"]) == 0
        assert main(["run", "table1"]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--max-bytes", "0"]) == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries        0" in capsys.readouterr().out


class TestSweep:
    def test_writes_staged_artifacts(self, capsys, tmp_path):
        assert main(["run", "fig6", "--out", str(tmp_path)]) == 0
        raw = json.loads((tmp_path / "fig6_raw.json").read_text())
        assert Scenario.from_dict(raw["scenario"]).name == "fig6"
        assert len(raw["points"]) == 3

        from repro.analysis.sweep import SweepResult

        loaded = SweepResult.from_csv(tmp_path / "fig6.csv")
        assert loaded.grid.names == ("workload.model",)
        assert [p.value["speedup"] for p in loaded.points] == pytest.approx(
            raw["series"]["speedup"]
        )
        assert "speedup" in (tmp_path / "fig6.txt").read_text()


class TestSubprocessEntryPoint:
    def test_python_dash_m_repro(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fig5" in proc.stdout
