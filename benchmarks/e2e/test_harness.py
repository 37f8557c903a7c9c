"""Self-test of the benchmark harness (not part of tier-1: ``testpaths`` is
``tests/``).  ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py``
runs every workload at 1/40 budget, untraced and traced, and the
``BENCHMARK.json`` command on one workload, in under 30 s, and checks the
schema and the trace's arithmetic; it measures nothing.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import compare, harness, layers, trace
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_benchmark(*args):
    """The ``BENCHMARK.json`` command + ``args`` from the root, as the
    driver runs it: no ``PYTHONPATH``."""
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        program, *command = json.load(fh)["command"]
    assert program == "python3"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *command, *args], cwd=harness.ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    stdout = run_benchmark("--smoke", "--seed", "3", "--out", str(out))
    with open(out) as fh:
        return json.load(fh), stdout


def test_manifest_is_the_catalogue_and_fits_the_contract(manifest):
    assert manifest == layers.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert len(manifest["workloads"]) == 4
    assert len(manifest["end_to_end"]) == 4
    assert len(manifest["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_manifest_command_prints_the_contract_line(manifest, trace, kind, tmp_path):
    stdout = run_benchmark(
        "--workload", "parallel4", "--seed", "3", "--seconds", "0.5",
        "--trace", trace, "--out", str(tmp_path / "run.json"))
    line = json.loads(stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in manifest[kind]}
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    if kind == "end_to_end":
        assert all(v["value"] > 0.0 for v in line["metrics"].values())


def test_every_workload_runs_clean_and_reports_every_metric(smoke):
    results, stdout = smoke
    assert set(results["workloads"]) == set(WORKLOADS)
    for name, block in results["workloads"].items():
        assert block["failed"] == 0 and not block["problems"], block["problems"]
        assert re.fullmatch(r"[0-9a-f]{64}", block["digest"])
        e2e = block["end_to_end"]
        assert set(e2e) == {m.name for m in layers.END_TO_END} | {"failed_share"}
        for metric in layers.END_TO_END:
            stats = e2e[metric.name]
            assert (stats["min"] <= stats["q1"] <= stats["median"]
                    <= stats["q3"] <= stats["max"])
            assert stats["median"] > 0.0
            assert f"{name} {metric.name} = " in stdout
        assert set(block["per_layer"]) == {m.name for m in layers.PER_LAYER}
        assert all(v is not None for v in block["per_layer"].values())
        assert not any("digest" in w for w in block["trace"]["warnings"])


def test_defaults_only(smoke):
    knobs = {"--backend", "--row-cache", "--row-cache-mb", "--executor",
             "--workers", "--mode", "--evaluation"}
    for block in smoke[0]["workloads"].values():
        assert not knobs & set(block["argv"])
    assert "REPRO_BACKEND" not in harness.fixtures.child_env(harness.ROOT)


def test_self_times_telescope_to_the_root_span(smoke):
    for block in smoke[0]["workloads"].values():
        sums = block["trace"]["telescoping"]
        assert sums["roots_s"] > 0.0
        assert abs(sums["self_sum_s"] - sums["roots_s"]) <= 0.01 * sums["roots_s"]
        # The layer table is the same sum in reference seconds.
        layer_total = sum(
            row["setup_s"] + row["tail_s"] + row["steady_us_per_event"]
            * 1e-6 * block["trace"]["events_steady"]
            for row in block["trace"]["layer_table"].values()
        )
        reference_s = block["trace"]["host_speed"] * sums["roots_s"]
        assert abs(layer_total - reference_s) <= 0.01 * reference_s


def test_layer_facts_the_workloads_were_chosen_for(smoke):
    w = smoke[0]["workloads"]
    assert w["serial_gemm"]["per_layer"]["core.rowcache.hit_rate"] == 0.0
    assert w["serial_gemm"]["per_layer"]["nnp.model.rows_per_event"] > 0.0
    assert w["serial_dense"]["per_layer"]["core.rowcache.hit_rate"] > 0.9
    for name, block in w.items():
        moved = [v for k, v in block["per_layer"].items()
                 if k.startswith(("parallel.comm.", "parallel.ghost."))]
        assert all(v > 0.0 for v in moved) == (name == "parallel4")
        assert any(v > 0.0 for v in moved) == (name == "parallel4")


def test_parents_are_rebuilt_from_nesting():
    rec = trace.Recorder()
    leaf = rec.wrap(lambda: sum(range(2000)), "a:leaf")
    middle = rec.wrap(lambda: (leaf(), leaf()), "a:middle")
    root = rec.wrap(lambda: (middle(), leaf()), "b:root")
    root()
    tree = rec.unit_trees(every=1)
    assert [s["name"] for s in tree] == [
        "b:root", "a:middle", "a:leaf", "a:leaf", "a:leaf"]
    assert [s["parent"] for s in tree] == [-1, 0, 1, 1, 0]
    inf = float("inf")
    table = rec.aggregate(-inf, inf)
    assert table["phase_sums"].keys() == {
        "b:root>a:middle", "b:root>a:leaf", "a:middle>a:leaf"}
    duration = tree[0]["end"] - tree[0]["start"]
    assert abs(table["self_sum_s"] - duration) < 1e-9
    assert abs(table["roots_s"] - duration) < 1e-9
    assert table["spans"]["a:leaf"]["steady"]["calls"] == 3


def test_missing_wrap_target_degrades_to_null():
    rec = trace.Recorder()
    gone = trace.Wrap("core.kernel:refresh", "repro.core.kernel",
                      "EventKernel.no_such_method")
    assert trace.install(rec, [gone]) == ["core.kernel:refresh"]
    traced = {
        "argv": ["run"],
        "result": {
            "import_s": 0.1, "events": [1, 1, 1], "cli_output": "",
            "stamps": [0.0, 0.5, 1.0],
            "trace": {**rec.aggregate(0.0, 1.0), "missing": rec.missing,
                      "span_cost_s": 1e-6,
                      "counts": {}, "setup_counts": {},
                      "objects": rec.object_stats(), "sector_events": []},
        },
    }
    empty = {"seconds": [], "unit_seconds": []}
    values = layers.per_layer(
        layers.TraceView(traced, empty, None, None, 1.0, None))
    assert values["core.kernel.refresh_self_us"] is None
    assert values["core.kernel.cold_refresh_s"] is None
    assert values["trace.missing_wraps"] == 1.0


def test_segments_are_equal_and_whole_rounds():
    stamps = [0.5 + 0.001 * i for i in range(1600)]
    # A host at half the reference speed: quanta take twice REF_QUANTUM_S.
    quanta = [0.4 + 0.04 * i for i in range(60)]
    run = {"unit_group": 8,
           "result": {"stamps": stamps, "events": [1] * len(stamps),
                      "cal_t": quanta,
                      "cal_d": [2 * harness.REF_QUANTUM_S] * len(quanta)}}
    seg = harness.segments(run)
    assert len(seg["seconds"]) >= 100
    assert set(seg["events"]) == {8}
    assert abs(harness.events_per_s([run], "raw_seconds") - 1000.0) < 1e-6
    # At half speed every measured second is half a reference second.
    assert abs(harness.events_per_s([run]) - 2000.0) < 1e-6


def test_compare_verdicts():
    def stats(median, lo, hi):
        return harness.spread_stats([lo, median, hi])

    assert compare.verdict(stats(10, 9.9, 10.1), stats(10.5, 10.4, 10.6),
                           "lower", 0.08) == "ok"
    assert compare.verdict(stats(10, 9.9, 10.1), stats(11.5, 11.4, 11.6),
                           "lower", 0.08) == "regressed"
    assert compare.verdict(stats(10, 9.9, 10.1), stats(8.5, 8.4, 8.6),
                           "higher", 0.08) == "regressed"
    assert compare.verdict(stats(10, 9.0, 11.0), stats(10.2, 9.5, 11.5),
                           "lower", 0.08) == "unresolved"
    assert compare.verdict(stats(0, 0, 0), stats(0.2, 0.2, 0.2),
                           "lower", 0.0) == "regressed"
    assert compare.verdict(stats(0, 0, 0), stats(0, 0, 0),
                           "lower", 0.0) == "ok"


def test_compare_refuses_sets_measured_differently(smoke, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(smoke[0]))
    b.write_text(json.dumps({**smoke[0], "seconds": 2 * smoke[0]["seconds"]}))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 2
    assert "seconds differs" in capsys.readouterr().err
