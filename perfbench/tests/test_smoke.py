"""Smoke test of the benchmark at tiny sizes.

Every workload runs once timed and once traced on a few items.  The test
checks that each metric named in BENCHMARK.json is emitted with its unit,
that the oracles pass, that tracing leaves the outputs (digest) unchanged,
and that the oracles reject wrong, undecided and uncertified answers.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SIZES = {"analyze": 3, "local-dulac": 3, "certify-queries": 40, "algebra": 10}


def small(name, out_dir):
    wl = WORKLOADS[name](ROOT, out_dir)
    if name == "analyze":
        # the three cheap systems, one of them with a cycle (rotation)
        wl.paths = [p for p in wl.paths
                    if p.stem in ("radial", "rotation", "shear")]
        wl.pass_size = SIZES[name]
    wl.prefix = wl.min_items = SIZES[name]
    if name == "certify-queries":
        wl.tail_block = SIZES[name]
    return wl


def units(entries):
    return {e["name"]: e["unit"] for e in entries}


def digest(stdout):
    return next(line for line in stdout.splitlines()
                if line.startswith("digest:"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_metrics_and_oracles(name, tmp_path, capsys):
    wl = small(name, tmp_path)
    args = argparse.Namespace(workload=name, seed=wl.default_seed,
                              seconds=0.0, trace=0)
    timed = run.measure(wl, args)
    timed_digest = digest(capsys.readouterr().out)
    args.trace = 1
    traced = run.measure(wl, args)
    traced_digest = digest(capsys.readouterr().out)

    for result, expected in ((timed, BENCH["end_to_end"]),
                             (traced, BENCH["per_layer"])):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= SIZES[name]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == units(expected)
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
    assert timed_digest == traced_digest
    assert all(timed["metrics"][m]["value"] > 0
               for m in units(BENCH["end_to_end"]))


def first_with_outcome(dulac, wl, kind):
    for item in wl.setup(dulac, wl.inputs(wl.default_seed)):
        out = wl.run(dulac, item)
        if isinstance(out.certificate.outcome, kind):
            return item, out
    raise AssertionError(f"no {kind.__name__} among the first items")


def with_outcome(dulac, out, outcome):
    cert = out.certificate
    return dulac.certify.DulacCertificate(
        dulac.certify.Certificate(outcome, cert.carrier, cert.box),
        out.multiplier, out.system, out.conclusion)


def test_oracles_reject_wrong_answers(tmp_path):
    import dulac

    certify = dulac.certify
    wl = small("certify-queries", tmp_path)
    item, out = first_with_outcome(dulac, wl, certify.Violation)
    assert wl.check(item, out)[0]
    o = out.certificate.outcome
    wrong = certify.Violation(o.witness, o.value - 1, o.depth)
    assert not wl.check(item, with_outcome(dulac, out, wrong))[0]

    # a positive carrier with a clear margin may not come back undecided
    item, out = first_with_outcome(dulac, wl, certify.Positive)
    assert wl.check(item, out)[0]
    undecided = certify.Inconclusive(depth_limit=6, undecided_boxes=1)
    assert not wl.check(item, with_outcome(dulac, out, undecided))[0]

    wl = small("algebra", tmp_path)
    item = wl.setup(dulac, wl.inputs(wl.default_seed))[0]
    field, curves, integral, lhs, round_trip = wl.run(dulac, item)
    assert wl.check(item, (field, curves, integral, lhs, round_trip))[0]
    swapped = [curves[1], curves[0], curves[2]]
    assert not wl.check(item, (field, swapped, integral, lhs, round_trip))[0]


def test_uncertified_equilibrium_fails(tmp_path, monkeypatch):
    import dulac

    wl = small("local-dulac", tmp_path)
    item = wl.setup(dulac, wl.inputs(wl.default_seed))[0]
    assert run.check_item(wl, item, run.run_item(wl, dulac, item))[0]

    def give_up(*args, **kwargs):
        raise dulac.errors.CertificationFailedError("no box certified")

    monkeypatch.setattr(dulac.synthesis, "local_dulac_hyperbolic", give_up)
    out = run.run_item(wl, dulac, item)
    assert not run.check_item(wl, item, out)[0]


def test_no_result_without_package_sources(tmp_path):
    """Outside a source checkout the benchmark fails without a result."""
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
