"""Tests for the benchmark's own logic: span arithmetic, restoration of
traced functions, output checks and metric names.  They run tiny configs
and take a few seconds."""
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import csvcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from elm_mimo import ChannelConfig, core, frontend, harness, receivers  # noqa: E402
from spans import Recorder, installed, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
TINY = {"channel": ChannelConfig(n_antennas=16, n_users=2),
        "snr_db_list": (10.0,), "training_len": 300, "payload_len": 900,
        "preamble_len": 200, "borrowed_hidden": 16, "trials": 2}


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    spans = [["root", 0.0, 10.0, None], ["a", 1.0, 4.0, 0],
             ["leaf", 2.0, 3.0, 1], ["b", 5.0, 9.0, 0], ["a", 9.5, 10.0, 0]]
    st = self_times(spans)
    assert st == {"root": 2.5, "a": 2.5, "leaf": 1.0, "b": 4.0}
    assert sum(st.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, None], ["c", 1.0, 4.0, 0], ["d", 3.0, 6.0, 0],
             ["e", 8.0, 12.0, 0]]
    assert self_times(spans)["p"] == 10.0 - 5.0 - 2.0


def test_recorder_links_parents_and_counts():
    rec = Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5]))

    def inner(x):
        return x + 1

    traced_inner = rec.wrap(inner, "inner", lambda args, kw: args[0])
    outer = rec.wrap(lambda: traced_inner(3) + traced_inner(4), "outer")
    assert outer() == 9
    assert rec.spans == [["outer", 0, 5, None], ["inner", 1, 2, 0],
                         ["inner", 3, 4, 0]]
    assert rec.counts == {"outer.calls": 1, "inner.calls": 2,
                          "inner.symbols": 7}


def test_traced_functions_are_restored():
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in workloads.trace_targets()]
    demap = vars(frontend.Qam16)["demap"]
    with pytest.raises(RuntimeError):
        with installed(Recorder(), workloads.trace_targets()):
            assert harness.transmit is not frontend.transmit
            assert receivers.ridge_solve is not core.ridge_solve
            assert frontend.Qam16.demap is not demap
            raise RuntimeError("abort inside the traced block")
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn
    assert harness.transmit is frontend.transmit
    assert receivers.ridge_solve is core.ridge_solve
    assert vars(frontend.Qam16)["demap"] is demap


def _valid_csv(experiment, cfg):
    lines = [csvcheck.HEADER]
    for (recv, snr, frame), sym in sorted(
            csvcheck.expected_rows(experiment, cfg).items(), key=str):
        lines.append("%s,%s,%g,%d,%d,%d,%.8e,%d" % (
            experiment, recv, snr, frame, sym, sym // 3, (sym // 3) / sym,
            cfg.master_seed))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("experiment", ["ser-sweep", "bias-ablation",
                                        "adaptive"])
def test_check_accepts_valid_and_rejects_corrupt_csv(experiment):
    cfg = replace(workloads.WORKLOADS["sweep-desk"].config(7), trials=2)
    good = _valid_csv(experiment, cfg)
    assert csvcheck.check_csv(good, experiment, cfg) == []
    assert csvcheck.check_csv(good, experiment, cfg,
                              csvcheck.sha256(good)) == []
    lines = good.decode().split("\n")
    row = lines[1].split(",")
    more_errors = ",".join(row[:5] + [str(int(row[4]) + 1)] + row[6:])
    bad_symbols = ",".join(row[:4] + [str(int(row[4]) - 1)] + row[5:])
    corrupt = {
        "header": "\n".join(["experiment,receiver"] + lines[1:]),
        "dropped row": "\n".join(lines[:1] + lines[2:]),
        "errors > symbols": "\n".join([lines[0], more_errors] + lines[2:]),
        "symbols": "\n".join([lines[0], bad_symbols] + lines[2:]),
        "seed": good.decode().replace(",7\n", ",8\n", 1),
        "no final newline": good.decode()[:-1],
    }
    for what, text in corrupt.items():
        assert csvcheck.check_csv(text.encode(), experiment, cfg), what
    assert csvcheck.check_csv(good, experiment, cfg, "0" * 64), "sha256"


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to a sub-second config; outputs go to tmp."""
    small = {name: replace(w, overrides={**w.overrides, **TINY})
             for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", small)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    return tmp_path


def test_corrupted_output_counts_as_failed(tiny, monkeypatch):
    real = workloads.run_experiment

    def corrupting(workload, cfg, out_path, *args, **kwargs):
        real(workload, cfg, out_path, *args, **kwargs)
        Path(out_path).write_text("experiment\n")
    monkeypatch.setattr(workloads, "run_experiment", corrupting)
    calls = run.Calls("sweep-desk", 3)
    metrics = run.end_to_end(calls, seconds=0.0)
    assert calls.attempted == 2 and calls.failed == 2
    assert metrics["wall_s"][0] > 0


def test_reference_mismatch_counts_as_failed(tiny):
    calls = run.Calls("ablation-desk", workloads.DEFAULT_SEED)
    assert calls.reference is not None
    calls.run()
    assert calls.failed == 1


@pytest.mark.parametrize("name", ["adaptive-paper", "sweep-desk-par2"])
def test_traced_run_reports_every_layer_metric(tiny, name):
    calls = run.Calls(name, 3)
    env = {"nproc": 2, "blas_threads": {"numpy": {"lib.so": 2}}}
    metrics = run.per_layer(calls, env)
    assert calls.failed == 0
    assert calls.attempted == 4 + (calls.workload.n_jobs > 1)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [u for _, u in metrics.values()] == [
        m["unit"] for m in BENCHMARK["per_layer"]]
    selfs = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(metrics["trace.wall_s"][0], rel=1e-9)
    exp = calls.workload.experiment
    # every payload symbol in the CSV is one demap decision
    assert metrics["frontend.demap.symbols"][0] == sum(
        csvcheck.expected_rows(exp, calls.cfg).values())
    if exp == "adaptive":
        ad = calls.cfg.adaptive
        assert metrics["core.rls_step.calls"][0] == (
            calls.cfg.trials * ad.n_frames * ad.frame_training_len)
    else:
        assert metrics["core.rls_step.calls"][0] == 0
    # a second run must reproduce the counts recorded by the first
    again = run.Calls(name, 3)
    run.per_layer(again, env)
    assert again.failed == 0


def test_benchmark_names_and_units():
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)
    units = [m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
