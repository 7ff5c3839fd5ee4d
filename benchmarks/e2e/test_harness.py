"""Tests of the benchmark harness itself (not of ``repro``).

Run by explicit path — this directory is outside tier-1's ``testpaths``:

    python3 -m pytest --noconftest benchmarks/e2e/test_harness.py

(``--noconftest`` skips ``benchmarks/conftest.py``, whose session fixture
samples paper-scale workloads the harness does not need.)  Everything
here uses ``--smoke`` sizes on the thread backend.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import statistics
import time

import pytest

import spec

spec.add_repo_to_path()

import numpy as np  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = spec.load_benchmark()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


# --------------------------------------------------------------------- #
# the contract file
# --------------------------------------------------------------------- #
def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = []
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
        names.append(m["name"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16 and 1 <= len(BENCH["per_layer"]) <= 128
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert set(spec.NATIVE) == {m["name"] for m in BENCH["end_to_end"]}
    assert set(workloads.WORKLOADS) == set(WORKLOADS)


# --------------------------------------------------------------------- #
# percentiles and quartiles
# --------------------------------------------------------------------- #
def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 100):
        data = rng.exponential(size=n).tolist()
        for q in (0, 50, 90, 99, 100):
            assert spec.percentile(data, q) == pytest.approx(np.percentile(data, q))


def test_fast_quartile_is_on_the_good_side():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert spec.fast_quartile(values, "lower") == 2.0
    assert spec.fast_quartile(values, "higher") == 4.0


def test_trial_percentile_leaves_out_the_slow_trials():
    quiet = [1.0] * 98 + [5.0, 6.0]
    burst = [1.0] * 50 + [100.0] * 50  # a trial the host slowed down
    assert spec.percentile(quiet, 99) == pytest.approx(5.01)
    assert spec.trial_percentile([quiet, burst, quiet], 99) == pytest.approx(5.01)
    assert spec.trial_percentile([quiet, burst, quiet], 50) == 1.0
    # One pool of the same samples lets the burst set the tail.
    assert spec.percentile(quiet + burst + quiet, 99) == 100.0


def test_timed_trials_are_shorter_than_traced_ones():
    for name, (smoke, timed, traced) in workloads.TRIAL_OPS.items():
        assert smoke <= timed <= traced
        assert workloads.trial_ops(name, False, False) == timed
        assert workloads.trial_ops(name, False, True) == traced
        assert workloads.trial_ops(name, True, True) == smoke
    serve = workloads.serve_mixed(1, False).config
    assert serve.train_steps * 10 == serve.requests_per_client == 500


def test_quartiles_and_spread_follow_statistics_quantiles():
    data = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.9, 9.5]
    q1, _, q3 = statistics.quantiles(data, n=4)
    assert spec.quartiles(data) == (q1, statistics.median(data), q3)
    assert spec.spread(data) == pytest.approx((q3 - q1) / statistics.median(data))
    assert spec.quartiles([3.0]) == (3.0, 3.0, 3.0)


# --------------------------------------------------------------------- #
# the bound rule
# --------------------------------------------------------------------- #
def test_verdict_applies_the_bound_in_the_metric_direction():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert spec.verdict(base, [x * 1.05 for x in base], "higher", 0.10) == "same"
    assert spec.verdict(base, [x * 0.85 for x in base], "higher", 0.10) == "worse"
    assert spec.verdict(base, [x * 1.20 for x in base], "higher", 0.10) == "better"
    assert spec.verdict(base, [x * 1.20 for x in base], "lower", 0.10) == "worse"
    assert spec.verdict(base, [x * 0.85 for x in base], "lower", 0.10) == "better"


def test_verdict_is_unresolved_when_spread_exceeds_the_bound():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    noisy = [70.0, 130.0, 100.0, 85.0, 115.0]
    assert spec.verdict(steady, noisy, "higher", 0.10) == "unresolved"
    assert spec.verdict(noisy, steady, "higher", 0.10) == "unresolved"
    assert spec.verdict(steady, [100.0], "higher", 0.10) == "unresolved"


def test_exact_count_with_zero_bound():
    assert spec.verdict([5.0, 5.0], [5.0, 5.0], "lower", 0.0) == "same"
    assert spec.verdict([5.0, 5.0], [6.0, 6.0], "lower", 0.0) == "worse"


def test_compare_reports_one_row_per_metric_and_workload(tmp_path, capsys):
    def doc(scale):
        runs = []
        for i in range(4):
            metrics = {
                m["name"]: {
                    "value": (100.0 + 0.01 * i) * scale.get(m["name"], 1.0),
                    "unit": m["unit"],
                }
                for m in BENCH["end_to_end"]
            }
            runs.append({"workload": "comm_step", "trace": 0, "smoke": False, "metrics": metrics})
        return {"schema": 1, "runs": runs}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc({})))
    b.write_text(json.dumps(doc({"rounds_per_s": 0.5, "round_ms_p50": 0.5})))
    assert compare.main([str(a), str(b)]) == 1
    rows = {
        r["metric"]: r
        for r in compare.compare(compare.load_runs(str(a)), compare.load_runs(str(b)), BENCH)
    }
    assert len(rows) == len(BENCH["end_to_end"])
    assert rows["rounds_per_s"]["verdict"] == "worse"
    assert rows["round_ms_p50"]["verdict"] == "better"
    assert rows["setup_s"]["verdict"] == "same"
    assert rows["lookups_per_s"]["alias"] and not rows["rounds_per_s"]["alias"]
    assert compare.main([str(a), str(a)]) == 0
    capsys.readouterr()


# --------------------------------------------------------------------- #
# seed plumbing
# --------------------------------------------------------------------- #
def _flat(inputs):
    return [np.asarray(v.values if hasattr(v, "values") else v) for i in inputs for v in i.values()]


def test_seed_reaches_comm_step_inputs():
    a, again, b = (workloads.comm_inputs(s, 4) for s in (1, 1, 2))
    assert all(np.array_equal(x, y) for x, y in zip(_flat(a), _flat(again)))
    assert not all(np.array_equal(x, y) for x, y in zip(_flat(a), _flat(b)))
    assert not np.array_equal(workloads.comm_table(1), workloads.comm_table(2))


@pytest.mark.parametrize("name", ["gnmt_compute", "dlrm_sparse"])
def test_seed_reaches_model_and_data(name):
    def trial(seed):
        w = workloads.WORKLOADS[name](seed, True)
        with w.open() as group:
            return w.trial(group)

    one, again, other = trial(1), trial(1), trial(2)
    assert one["losses"] == again["losses"]
    assert one["wire_bytes"] == again["wire_bytes"]  # exact at a fixed seed
    assert one["losses"] != other["losses"]


def test_seed_reaches_serve_load_and_training():
    from repro.serve import ZipfRequestLoad, offline_reference

    cfgs = [workloads.serve_mixed(s, True).config for s in (1, 2)]
    assert [c.seed for c in cfgs] == [1, 2]
    assert offline_reference(cfgs[0])[0] != offline_reference(cfgs[1])[0]
    ids = []
    for c in cfgs:
        load = ZipfRequestLoad(c.vocab, c.tables, c.ids_per_request, c.zipf_exponent, c.seed)
        ids.append(load.make_request(load.client_rng(0), 0, 0).ids)
    assert not np.array_equal(ids[0], ids[1])


# --------------------------------------------------------------------- #
# the command, end to end at smoke size
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_prints_every_declared_metric(name, trace, tmp_path, capsys):
    out = tmp_path / "out.json"
    code = run.main(
        ["--workload", name, "--seed", "3", "--smoke", "--trace", str(trace), "--out", str(out)]
    )
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and final["correct"] is True
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["attempted"] >= 1 and final["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in final["metrics"].values())
    record = json.loads(out.read_text())["runs"][-1]
    assert record["seed"] == 3 and record["workload"] == name
    assert record["env"]["threads"] == {k: "1" for k in run.THREAD_ENV}
    assert {"nproc", "numpy", "blas", "python", "commit"} <= set(record["env"])


def test_waterfall_rows_sum_to_the_step():
    import layers

    w = workloads.dlrm_sparse(3, True)
    log = layers.SpanLog()
    m = layers.train_layers(w, log, True)["metrics"]
    rows = layers.waterfall_rows(m)
    assert [label.split()[0] for label, _ in rows] == ["nn", "optim", "comm", "residual"]
    assert sum(ms for _, ms in rows) == pytest.approx(m["engine.step_ms"])
    assert "= engine.step_ms" in layers.waterfall(w.name, m, log, w.world)


# --------------------------------------------------------------------- #
# the leak check
# --------------------------------------------------------------------- #
def test_leak_check_is_clean_after_a_clean_run():
    before = run.shm_names()
    w = workloads.comm_step(1, True)
    with w.open() as group:
        w.cold_call(group)
    assert run.leak_check(before) == []


@pytest.mark.skipif(not os.path.isdir(run.SHM_DIR), reason="no /dev/shm")
def test_leak_check_reports_a_leaked_segment():
    before = run.shm_names()
    path = os.path.join(run.SHM_DIR, f"e2e-harness-leak-{os.getpid()}")
    with open(path, "w"):
        pass
    try:
        assert run.leak_check(before) == [f"leaked shm segment {os.path.basename(path)}"]
    finally:
        os.unlink(path)
    assert run.leak_check(before) == []


def test_leak_check_reports_a_surviving_child():
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(30,))
    child.start()
    try:
        assert run.leak_check(run.shm_names()) == [f"surviving child process {child.pid}"]
    finally:
        child.terminate()
        child.join(timeout=10)
    assert not child.is_alive()
    assert run.leak_check(run.shm_names()) == []
