"""What a config value may be: one type rule, and a range that each
numeric config field declares where it is defined, with `bounded`, so a
bad value fails with a ValueError naming its key.  The JSON loader
builds the whole config tree with `typed`; each config dataclass checks
itself with `check`, which is also where a JSON null is judged: it is
admitted exactly where the field type is `... | None`.  A dict is
completed from its default, so a key it leaves out keeps its default
value and every config holds all of a dict field's keys.  The upper
bounds keep every derived quantity finite."""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import MISSING, field, fields, is_dataclass

MIN_CALIBRATION = 100   # the fewest real samples an ADC calibrates on
POSITIVE = math.ulp(0.0)   # the least float > 0; messages print "> 0"
# the least scale or Saleh coefficient: a subnormal one underflows the
# quantizer step or the calibration samples to 0
FLOOR = 1e-6


def bounded(default, lower, upper=math.inf):
    """A config dataclass field whose values lie in the closed range
    [lower, upper]: its own, or each of a list's or a dict's values."""
    row = {"range": (lower, upper)}
    if isinstance(default, dict):   # each instance gets its own copy
        return field(default_factory=default.copy, metadata=row)
    return field(default=default, metadata=row)


def typed(value, default, key: str, row=None):
    """A JSON value checked against the type of the default it replaces,
    then its closed range row (lower, upper), None for none; an object is
    checked key by key against a default dict, whose values share its row
    and fill in the keys it leaves out, or a default dataclass, which it
    builds and which checks its own fields (a null too); a list's values
    share its row; an empty key makes the child keys unprefixed; a float
    must be a finite float64."""
    if is_dataclass(default) or isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValueError(f"config key '{key}' must be an object, "
                             f"got {value!r}")
        template = vars(default) if is_dataclass(default) else default
        prefix = f"{key}." if key else ""
        unknown = set(value) - set(template)
        if unknown:
            raise ValueError(f"unknown config key '{prefix}{min(unknown)}'")
        if isinstance(default, dict):   # a key left out keeps its default
            value = {**default, **value}
        value = {k: v if v is None and is_dataclass(default)
                 else typed(v, template[k], prefix + k, row)
                 for k, v in value.items()}
        return type(default)(**value) if is_dataclass(default) else value
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key '{key}' must be a list, "
                             f"got {value!r}")
        return tuple(typed(v, default[0], key, row) for v in value)
    kind = {int: numbers.Integral, float: numbers.Real}.get(type(default),
                                                          type(default))
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       != isinstance(default, bool)):
        raise ValueError(f"config key '{key}' must be of type "
                         f"{type(default).__name__}, got {value!r}")
    if isinstance(default, float) and not abs(value) <= sys.float_info.max:
        raise ValueError(f"config key '{key}' must be finite, got {value!r}")
    lo, hi = row or (value, value)   # no row, no bound
    if not lo <= value <= hi:
        need = "> 0" if lo == POSITIVE else f">= {lo!r}"
        need += "" if hi == math.inf else f" and <= {hi!r}"
        raise ValueError(f"config key '{key}' must be {need}, got {value!r}")
    return value


def check(obj, prefix: str = ""):
    """`typed` on each field of config dataclass obj, keyed prefix + name,
    under the field's range, storing what it returns (a list as a tuple, a
    dict as a copy); `| None` admits None; a nested config checked itself."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        key = prefix + f.name
        default = f.default_factory() if f.default is MISSING else f.default
        if value is None and "None" in str(f.type):
            continue
        if not is_dataclass(default):
            object.__setattr__(obj, f.name, typed(
                value, default, key, f.metadata.get("range")))
        elif not isinstance(value, type(default)):
            raise ValueError(f"config key '{key}' must be a "
                             f"{type(default).__name__}, got {value!r}")
