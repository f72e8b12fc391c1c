"""The experiment scripts under scripts/ run end to end against the
library in src/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nullcover.structure import enumerate_descriptors

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["cover_demo.py", "measure_decay.py", "reduction_gallery.py"])
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_deep_table_rows():
    # shallow depths keep the run short; the defaults are 100, 400 and 850
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "deep_table.py"), "--depths", "8,12", "--repeats", "1", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)
    assert [row["run"] for row in rows] == [
        "p-adic, p=2, depth 8", "p-adic, p=2, depth 12",
        "product, orders 2 cycled, depth 8", "product, orders 2 cycled, depth 12",
    ]
    assert all(set(row["ms"]) == {"plan", "build", "slalom", "find_translator", "cover", "second_cover",
                                  "verify_cover"}
               for row in rows)
    assert all(row["ms"]["find_translator"] > 0 and row["ms"]["second_cover"] > 0 for row in rows)
    assert all(row["bundle_mb"] > 0 for row in rows)
    # a built nullset holds one range per block, not its indices
    assert all(0 < row["build_peak_mib"] < 1 for row in rows)


def test_pipeline_table_rows():
    # size 3 keeps the run short; the default is 5
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pipeline_table.py"), "--size", "3", "--repeats", "1", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)
    assert [row["stage"] for row in rows] == [
        "descriptor_to_json", "descriptor_from_json", "niceness_pipeline", "dual", "classify_subgroup",
    ]
    # classify runs on the infinite discrete descriptors alone
    counts = {row["stage"]: row["descriptors"] for row in rows}
    assert counts["niceness_pipeline"] == len(list(enumerate_descriptors(3)))
    assert 0 < counts["classify_subgroup"] < counts["dual"] == counts["niceness_pipeline"]
    assert all(row["us_each"] > 0 for row in rows)


def test_ab_ops_smoke():
    # the tree against itself: the checks agree and both trees are timed
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_ops.py"), str(ROOT), str(ROOT),
         "--workload", "cover-deep", "--rounds", "1", "--passes", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "check texts equal" in result.stdout
    assert "change won" in result.stdout


def test_ab_ops_refuses_cli_cold():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_ops.py"), str(ROOT), str(ROOT), "--workload", "cli-cold"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2
    assert "cli-cold" in result.stderr


def test_bench_pairs_smoke(tmp_path):
    # the tree against itself, one short pair: both runs correct, and the
    # summary carries every end-to-end metric the runs report
    out = tmp_path / "pairs.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT),
         "--workload", "cover-wide", "--pairs", "1", "--seconds", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "change won" in result.stdout
    record = json.loads(out.read_text())
    assert [(run["pair"], run["tree"]) for run in record["runs"]] == [(0, "parent"), (0, "change")]
    summary = record["summary"]["cover-wide"]
    assert {"ops_per_s", "op_p50_ms", "ok_ratio", "peak_rss_mb"} <= set(summary)
    assert summary["ok_ratio"]["parent_runs"] == summary["ok_ratio"]["change_runs"] == [1.0]
    assert all(stats["pairs"] == 1 for stats in summary.values())
