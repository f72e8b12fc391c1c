"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
from workloads import (COVER_DEEP, COVER_WIDE, DEFAULT_SEED, HELD_OUT_SEED, POSITIONS,
                       VARIANTS, WORKLOADS)

sys.path.insert(0, run.SRC)


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def inputs_of(workload, lib, seed, tmp_path):
    workload.setup(lib, seed, str(tmp_path))
    if workload.name.startswith("cover"):
        return workload.order, [[s.sets for s in slaloms] for _, slaloms, _ in workload.inputs]
    if workload.name == "exact-queries":
        return workload.chunk_order, workload.order, len(workload.descriptors)
    files = sorted(os.listdir(workload.dir))
    return workload.order, {f: open(os.path.join(workload.dir, f)).read() for f in files}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_repeat_for_a_seed(name, lib, tmp_path):
    workload = WORKLOADS[name]
    first = inputs_of(workload, lib, DEFAULT_SEED, tmp_path / "a")
    assert inputs_of(workload, lib, DEFAULT_SEED, tmp_path / "b") == first
    assert inputs_of(workload, lib, HELD_OUT_SEED, tmp_path / "c") != first


def rejected(workload, lib, seed, tmp_path):
    """Cover each configuration with the seed's first-round variant and
    verify a tampered copy at every position."""
    workload.setup(lib, seed, str(tmp_path))
    results = []
    for c in range(len(workload.configs)):
        v = workload.order[c][0]
        spec, slaloms, _ = workload.inputs[c]
        ops = workload.ops(c, v)
        for op in ops:
            op.result = op.call()
            text, problems = op.check(op.result)
            assert problems == [], (op.key, problems)
            if op.reject:
                results.append((workload, c, v, op.result))
    return results


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", [COVER_DEEP, COVER_WIDE], ids=lambda w: w.name)
def test_tamper_always_rejects(workload, seed, lib, tmp_path):
    results = rejected(workload, lib, seed, tmp_path)
    assert len(results) == len(workload.configs) * len(POSITIONS)
    assert all(not result.ok for *_, result in results)


def test_tamper_positions_reach_early_and_late(lib, tmp_path):
    COVER_DEEP.setup(lib, DEFAULT_SEED, str(tmp_path))
    c = COVER_DEEP.labels.index("padic-2-d11")
    geo = COVER_DEEP.geometry(c, 0)
    cert = lib.cover.cover_padic_slalom(COVER_DEEP.inputs[c][2], COVER_DEEP.inputs[c][0],
                                        COVER_DEEP.inputs[c][1][0])
    ranks = {pos: checks.tamper(geo, cert.translate, pos, 0)[2] / geo.total for pos in POSITIONS}
    assert ranks["early"] < 1e-3 and ranks["late"] >= 0.25


def test_check_catches_flipped_verdict_and_wrong_witness(lib, tmp_path):
    COVER_DEEP.setup(lib, DEFAULT_SEED, str(tmp_path))
    c = COVER_DEEP.labels.index("padic-3-d9")
    spec, slaloms, ctx = COVER_DEEP.inputs[c]
    geo = COVER_DEEP.geometry(c, 1)
    cert = lib.cover.cover_padic_slalom(ctx, spec, slaloms[1])
    bad, witness, checked = checks.tamper(geo, cert.translate, "late", 1)
    result = lib.cover.verify_cover(spec, bad, slaloms[1])
    assert checks.check_reject(geo, bad, witness, checked, result) == []
    flipped = dataclasses.replace(result, ok=True, witness=None)
    assert checks.check_reject(geo, bad, witness, checked, flipped)
    other = tuple(s[-1] for s in slaloms[1].sets)
    assert checks.check_reject(geo, bad, witness, checked, dataclasses.replace(result, witness=other))
    good = lib.cover.verify_cover(spec, cert.translate, slaloms[1])
    assert checks.check_accept(geo, good) == []
    assert checks.check_accept(geo, dataclasses.replace(good, ok=False, witness=witness))


def test_check_catches_flipped_pipeline_verdict(lib, tmp_path):
    workload = WORKLOADS["exact-queries"]
    workload.setup(lib, DEFAULT_SEED, str(tmp_path))
    op = next(workload.chunk_ops(0))
    out = op.call()
    assert op.check(out)[1] == []
    back, result, dualized, verdict = out[0]
    wrong = dataclasses.replace(result, verdict="not-nice:discrete" if result.verdict == "nice" else "nice")
    assert op.check([(back, wrong, dualized, verdict)] + out[1:])[1]


def test_verdict_tally_at_size_six(lib):
    shapes = [checks.shape(d) for d in lib.structure.enumerate_descriptors(6)]
    tally = {}
    for s in shapes:
        verdict = checks.expected_verdict(s)
        tally[verdict] = tally.get(verdict, 0) + 1
    assert tally == {"nice": 160438, "not-nice:discrete": 17839}


def test_closed_forms_match_library(lib):
    for n in range(0, 60, 7):
        assert checks.bound_closed(n) == lib.cover.bound_product(n)
    for n in (2, 3, 10, 41):
        assert checks.sup_exact(n) == lib.nullset.ek_sup(n)


def test_quantiles():
    values = [float(i) for i in range(101)]
    assert run.quantile(values, 0.5) == pytest.approx(50.0, abs=1e-6)
    value, percentile = run.tail(values[:100])
    assert percentile == 90.0 and value == pytest.approx(89.5, abs=0.5)
    # two equal clusters: the estimate sits between them, not on either edge
    assert 40 < run.quantile([10.0] * 20 + [90.0] * 20, 0.5) < 60


def test_every_pooled_op_has_a_digest():
    with open(os.path.join(run.HERE, "expected.json")) as handle:
        expected = json.load(handle)
    assert set(expected) == set(WORKLOADS)
    assert len(expected["cover-deep"]) == len(COVER_DEEP.configs) * VARIANTS * (2 + len(POSITIONS))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-cold", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
