"""What a config value may be: one type rule and one table of ranges,
so a bad value fails with a ValueError naming its key.  The JSON loader
builds the whole config tree with `typed`; each config dataclass checks
itself with `check`, which is also where a JSON null is judged: it is
admitted exactly where the field type is `... | None`.  The upper bounds
keep every derived quantity finite."""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import MISSING, fields, is_dataclass

MIN_CALIBRATION = 100   # the fewest real samples an ADC calibrates on
POSITIVE = math.ulp(0.0)   # the least float > 0; messages print "> 0"
# the least scale or Saleh coefficient: a subnormal one underflows the
# quantizer step or the calibration samples to 0
FLOOR = 1e-6

# JSON key -> closed (lower, upper); a list's elements share its key
BOUNDS = {
    **dict.fromkeys((  # counts
        "channel.n_antennas", "channel.n_users", "channel.n_rays",
        "training_len", "payload_len", "preamble_len", "borrowed_hidden",
        "trials", "adaptive.init_len", "adaptive.frame_training_len",
        "adaptive.frame_data_len", "adaptive.n_frames",
        "adaptive.benchmark_training_len"), (1, math.inf)),
    # "gamma" is the scalar form, one gamma for every receiver
    **dict.fromkeys(("gamma", "gamma.natural-elm", "gamma.borrowed-elm",
                     "gamma.trained-zf", "gamma.oselm"), (0.0, math.inf)),
    "master_seed": (0, math.inf),
    "snr_db_list": (-300.0, 300.0),
    "adc.bits": (1, 53),   # the significand of a float64 sample
    "adc.headroom": (FLOOR, 1e6),
    "adc.bias_scale": (0.0, 1e6),
    "channel.carrier_hz": (POSITIVE, 1e12),
    "channel.symbol_duration_s": (POSITIVE, 1.0),
    "channel.angular_spread_deg": (POSITIVE, 90.0),   # the ray-offset cutoff
    "channel.velocity_mps": (0.0, 1e4),
    # the visible region of the ULA
    "channel.mean_aoa_range_rad": (-math.pi / 2, math.pi / 2),
    **dict.fromkeys(("saleh.alpha_a", "saleh.eps_a", "saleh.eps_phi"),
                    (FLOOR, 1e3)),   # Saleh's coefficients are O(1)
    "saleh.alpha_phi": (0.0, 1e3),
    "adaptive.forgetting": (POSITIVE, 1.0),
}


def typed(value, default, key: str):
    """A JSON value checked against the type of the default it replaces,
    then its key's BOUNDS row; an object is checked key by key against a
    default dataclass, which it builds (a null is left to the dataclass's
    own check), or dict; an empty key makes the child keys unprefixed; a
    float must be a finite float64."""
    if is_dataclass(default) or isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValueError(f"config key '{key}' must be an object, "
                             f"got {value!r}")
        template = vars(default) if is_dataclass(default) else default
        prefix = f"{key}." if key else ""
        unknown = set(value) - set(template)
        if unknown:
            raise ValueError(f"unknown config key '{prefix}{min(unknown)}'")
        value = {k: v if v is None and is_dataclass(default)
                 else typed(v, template[k], prefix + k)
                 for k, v in value.items()}
        return type(default)(**value) if is_dataclass(default) else value
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key '{key}' must be a list, "
                             f"got {value!r}")
        return tuple(typed(v, default[0], key) for v in value)
    kind = {int: numbers.Integral, float: numbers.Real}.get(type(default),
                                                          type(default))
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       != isinstance(default, bool)):
        raise ValueError(f"config key '{key}' must be of type "
                         f"{type(default).__name__}, got {value!r}")
    if isinstance(default, float) and not abs(value) <= sys.float_info.max:
        raise ValueError(f"config key '{key}' must be finite, got {value!r}")
    lo, hi = BOUNDS.get(key, (value, value))   # no row, no bound
    if not lo <= value <= hi:
        need = "> 0" if lo == POSITIVE else f">= {lo!r}"
        need += "" if hi == math.inf else f" and <= {hi!r}"
        raise ValueError(f"config key '{key}' must be {need}, got {value!r}")
    return value


def check(obj, prefix: str = ""):
    """`typed` on each field of config dataclass obj, keyed prefix + name;
    `| None` admits None; a nested config checked itself."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        key = prefix + f.name
        default = f.default_factory() if f.default is MISSING else f.default
        if value is None and "None" in str(f.type):
            continue
        if not is_dataclass(default):
            typed(value, default, key)
        elif not isinstance(value, type(default)):
            raise ValueError(f"config key '{key}' must be a "
                             f"{type(default).__name__}, got {value!r}")
