"""Scenario files: a strict JSON schema tying parameters, history and run settings.

The dataclass fields are the schema. `from_dict` checks the parameters in
declaration order, each number by `_number` against its rule (integer, minimum,
strict, maximum), and a float must be finite too; `RunSettings` checks its own
fields the same way when it is made, each run number against the rule it carries
beside its default.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from . import dde
from .errors import ConfigurationError, ScenarioError
from .history import DEFAULT_GRID, History
from .model import _POSITIVE, Parameters
from .sde import SCHEME_HEUN, SCHEMES

_PARAM_KEYS = tuple(f.name for f in fields(Parameters))
_PARAM_RULES = {key: (False, 0.0, key in _POSITIVE, None) for key in _PARAM_KEYS}
_REQUIRED_PARAMS = [f.name for f in fields(Parameters) if f.default is MISSING]
_HISTORY_KEYS = {
    "constant": {"preset", "s0", "q0", "i0", "n_grid"},
    "zero-phage": {"preset", "s0", "i0", "n_grid"},
    "table": {"preset", "s", "q", "i0"},
}
_TOP_KEYS = {"parameters", "history", "run"}
# n_grid intervals hold n_grid + 1 samples, at most dde.MAX_STEPS, as a table's lists
# do (_samples): a larger grid or table is refused before its sample arrays exist
_GRID_RULE = (True, 0.0, False, dde.MAX_STEPS - 1)


@dataclass(frozen=True)
class RunSettings:
    """A run's settings, checked whenever they are made: by from_dict, a caller or replace.

    Each field is checked in declaration order, then `kappa1 < kappa2` and `window`
    inside [0, T]; a bad value raises ScenarioError naming its `run.` key. A number is
    stored as its rule converts it, so K = 64.0 is the int 64. The step limit needs
    the parameters' tau, so from_dict checks it.
    """

    # a number's rule for `_number`: (integer, minimum, strict, maximum)
    T: float = field(default=50.0, metadata={"rule": (False, 0.0, True, None)})
    K: int = field(default=64, metadata={"rule": (True, 8, False, None)})
    # at most what a range of path indices counts (a C ssize_t), so that sde's path budget,
    # which refuses far fewer paths, can count every n this rule admits
    n: int = field(default=400, metadata={"rule": (True, 1, False, 2**63 - 1)})
    # sde._increments keys the noise streams on 64 bits of the seed
    seed: int = field(default=0, metadata={"rule": (True, 0, False, 2**64 - 1)})
    eps_list: list = field(default_factory=lambda: [0.05, 0.02, 0.01])
    rho: float = field(default=0.05, metadata={"rule": (False, 0.0, True, None)})
    kappa1: float = field(default=1.2, metadata={"rule": (False, 1.0, True, None)})
    kappa2: float = field(default=2.0, metadata={"rule": (False, 1.0, True, None)})
    scheme: str = SCHEME_HEUN
    outdir: str = "out"
    window: Optional[list] = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata:
                value = _number(value, f"run.{f.name}", f.metadata["rule"])
            elif f.name == "eps_list":
                if not isinstance(value, list) or not value:
                    raise ScenarioError("run.eps_list must be a nonempty list of numbers")
                value = [_number(e, "run.eps_list.e", (False, 0.0, False, None)) for e in value]
            elif f.name == "scheme" and value not in SCHEMES:
                raise ScenarioError(f"run.scheme must be one of {SCHEMES}")
            elif f.name == "outdir" and not isinstance(value, str):
                raise ScenarioError("run.outdir must be a string")
            elif f.name == "window" and value is not None:
                if not (isinstance(value, list) and len(value) == 2):
                    raise ScenarioError("run.window must be [t_a, t_b] with t_a < t_b")
                value = [_number(v, f"run.window[{j}]", (False, None, False, None))
                         for j, v in enumerate(value)]
                if not value[0] < value[1]:
                    raise ScenarioError("run.window must be [t_a, t_b] with t_a < t_b")
            object.__setattr__(self, f.name, value)  # frozen
        if self.kappa2 <= self.kappa1:
            raise ScenarioError("run.kappa2 must exceed run.kappa1")
        if self.window is not None and (self.window[0] < 0.0 or self.window[1] > self.T):
            t_a, t_b = self.window
            raise ScenarioError(
                f"run.window [{t_a:g}, {t_b:g}] must lie inside [0, T] = [0, {self.T:g}]"
            )


_RUN_KEYS = tuple(f.name for f in fields(RunSettings))


@dataclass
class Scenario:
    parameters: Parameters
    run: RunSettings
    history: History


def _history(spec, tau):
    """The History of a checked spec; a value it refuses makes the history invalid."""
    n_grid = spec.get("n_grid", DEFAULT_GRID)
    try:
        if spec["preset"] == "constant":
            return History.constant(tau, spec["s0"], spec["q0"], spec["i0"], n_grid=n_grid)
        if spec["preset"] == "zero-phage":
            return History.zero_phage(tau, spec["s0"], spec["i0"], n_grid=n_grid)
        return History(tau, spec["s"], spec["q"], spec["i0"])
    # OverflowError: a table sample past the float range. A MemoryError is no
    # fault of the history and reaches the CLI's resource handler.
    except (OverflowError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid history: {exc}") from exc


def _reject_unknown(given, allowed, where):
    if not isinstance(given, dict):
        raise ScenarioError(f"{where} must be an object, got {type(given).__name__}")
    unknown = sorted(set(given).difference(allowed))
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _require(mapping, keys, where):
    missing = sorted(k for k in keys if k not in mapping)
    if missing:
        raise ScenarioError(f"missing key(s) in {where}: {', '.join(missing)}")


def _shown(value):
    """`value` as a refusal quotes it: an integer of over 30 characters by its first nine and
    its digit count, as json reads integers of up to 4 300 digits."""
    text = repr(value)
    if isinstance(value, int) and len(text) > 30:
        return f"{text[:9]}... (an integer of {len(text.lstrip('-'))} digits)"
    return text


def _number(value, name, rule):
    """`value` as an int or float, checked against rule = (integer, minimum, strict, maximum)."""
    integer, minimum, strict, maximum = rule
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{name} must be a number, got {_shown(value)}")
    # inf and NaN are no integers
    if integer and isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{name} must be an integer, got {_shown(value)}")
    try:
        number = int(value) if integer else float(value)
    except OverflowError:  # an int past the float range
        raise ScenarioError(f"{name} must be a finite number, got {_shown(value)}") from None
    # written so that NaN fails too
    if minimum is not None and not (number > minimum if strict else number >= minimum):
        cmp = ">" if strict else ">="
        raise ScenarioError(f"{name} must be {cmp} {minimum}, got {_shown(value)}")
    if maximum is not None and not number <= maximum:
        raise ScenarioError(f"{name} must be <= {maximum}, got {_shown(value)}")
    # after the bounds, so a NaN fails its minimum's message where there is one
    if not integer and not math.isfinite(number):
        raise ScenarioError(f"{name} must be a finite number, got {_shown(value)}")
    return number


def _samples(value, name):
    """A table's list of samples, refused past dde.MAX_STEPS before any is checked or built.

    Each sample then follows the number rules as name[j], a finite float >= 0.
    """
    if not isinstance(value, list):
        return value
    if len(value) > dde.MAX_STEPS:
        raise ScenarioError(f"{name} must hold at most {dde.MAX_STEPS} samples, "
                            f"got {len(value)}")
    return [_number(v, f"{name}[{j}]", (False, 0.0, False, None)) for j, v in enumerate(value)]


def from_dict(doc):
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "scenario")
    _require(doc, ("parameters", "history"), "scenario")

    params = doc["parameters"]
    _reject_unknown(params, _PARAM_KEYS, "parameters")
    _require(params, _REQUIRED_PARAMS, "parameters")
    kwargs = {key: _number(params[key], f"parameters.{key}", rule)
              for key, rule in _PARAM_RULES.items() if key in params}
    try:
        parameters = Parameters(**kwargs)
    except Exception as exc:
        raise ScenarioError(f"invalid parameters: {exc}") from exc

    hist = doc["history"]
    if not isinstance(hist, dict) or "preset" not in hist:
        raise ScenarioError("history must be an object with a 'preset' key")
    preset = hist["preset"]
    if not isinstance(preset, str) or preset not in _HISTORY_KEYS:
        raise ScenarioError(
            f"unknown history preset {preset!r}; choose from {sorted(_HISTORY_KEYS)}"
        )
    _reject_unknown(hist, _HISTORY_KEYS[preset], "history")
    _require(hist, sorted(_HISTORY_KEYS[preset] - {"preset", "n_grid"}), "history")
    checked = {key: value if key == "preset" else
               _samples(value, f"history.{key}") if key in ("s", "q") else
               _number(value, f"history.{key}",
                       _GRID_RULE if key == "n_grid" else (False, 0.0, False, None))
               for key, value in hist.items()}

    run_doc = doc.get("run", {})
    _reject_unknown(run_doc, _RUN_KEYS, "run")
    run = RunSettings(**run_doc)
    try:
        dde.step_count(run.T, parameters.tau, run.K)
    except ConfigurationError as exc:  # its message starts "T = ", the run field it names
        raise ScenarioError(f"run.{exc}") from exc

    return Scenario(parameters, run, _history(checked, parameters.tau))


def parse_scenario(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    # json's other refusals: an integer of more than 4300 digits, bytes that
    # are not UTF-8 (both ValueError) and nesting deeper than the recursion limit
    except (RecursionError, ValueError) as exc:
        raise ScenarioError(f"{path}: unreadable JSON: {exc}") from exc
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return from_dict(doc)
