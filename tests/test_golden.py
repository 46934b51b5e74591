"""Golden CSV gate: the sha256 of the CSV each small config produces.

RNG draw order is part of the output contract, so a refactor of the
trial code must reproduce these bytes exactly.  Change a hash only
together with a documented change of the results.
"""
import hashlib
from dataclasses import replace

import pytest

from elm_mimo.channel import ChannelConfig
from elm_mimo.harness import (AdaptiveConfig, ConverterConfig, desk_config,
                              run_adaptive, run_bias_ablation, run_ser_sweep,
                              write_csv)


def _config(**overrides):
    channel = ChannelConfig(n_antennas=16, n_users=2,
                            velocity_mps=overrides.pop("velocity_mps", 0.0))
    base = dict(channel=channel, snr_db_list=(5.0, 15.0), training_len=300,
                payload_len=5000, preamble_len=200, borrowed_hidden=32,
                trials=2, adaptive=AdaptiveConfig(
                    init_len=600, frame_training_len=100,
                    frame_data_len=overrides.pop("frame_data_len", 400),
                    benchmark_training_len=300, n_frames=3))
    base.update(overrides)
    return replace(desk_config(), **base)


IDEAL = ConverterConfig(bits=None)
GOLDEN = [
    ("sweep", run_ser_sweep, {},
     "4d8ec734084bc963e15b21a397ec57be793e18edb274ae0a4dfd9253f8d9f87a"),
    ("sweep-per-user", run_ser_sweep, {"per_user": True},
     "f24f7805207c57f2a9b511fa3a8e7606e39f8e37bcfd8adee29f9786fe4a21e2"),
    ("sweep-linear-ideal", run_ser_sweep, {"saleh": None, "adc": IDEAL},
     "a7f4ca866b56ba6102b37020f16e5e34fd0c07a93a4a46daa55dd2e216cbd628"),
    ("sweep-subset", run_ser_sweep,
     {"receivers": ("mmse", "borrowed-elm", "natural-elm")},
     "933072f45ea863b885df1a545aab6adb6e48155d8d70076fba167d354ecc59ca"),
    ("sweep-pre-pa-3bit", run_ser_sweep,
     {"snr_reference": "pre-pa", "adc": ConverterConfig(bits=3),
      "master_seed": 7},
     "9c9dd0091cb8a535dc6fd9e6407e5b4f9a1d7c23397cdd7c890fd896a7ad645c"),
    ("ablation", run_bias_ablation, {},
     "bf3daa99a8814cbffc6436bd2462688be6cb6a150fec14b95f25d7290a516383"),
    ("ablation-ideal-per-user", run_bias_ablation,
     {"adc": IDEAL, "per_user": True},
     "a86508e014f92f9106463ac2e828f615859d48f4d86f7bc241d425789fea5636"),
    ("adaptive", run_adaptive, {"velocity_mps": 30.0},
     "55513a7f0a29f930de738732d164cfe1f1d9143babd7fb5fde7029f3bd23be72"),
    ("adaptive-long-frame", run_adaptive,
     {"frame_data_len": 5000, "adc": IDEAL, "per_user": True},
     "2fee9b3d690e1e6f0cf52e4b7d703f77a6b1ec8fe692f5db78081a90065d32e6"),
]


@pytest.mark.parametrize("run, overrides, digest",
                         [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_golden_csv(tmp_path, run, overrides, digest):
    path = tmp_path / "out.csv"
    write_csv(run(_config(**overrides)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["sweep", "ablation"])
def test_quasi_static_runs_ignore_velocity(tmp_path, name):
    # a quasi-static channel is the process at t = 0, where no Doppler
    # phase has turned, so a 30 m/s config gives the 0 m/s bytes
    _, run, overrides, digest = next(g for g in GOLDEN if g[0] == name)
    path = tmp_path / "out.csv"
    write_csv(run(_config(velocity_mps=30.0, **overrides)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
