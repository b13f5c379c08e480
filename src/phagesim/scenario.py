"""Scenario files: a strict JSON schema tying parameters, history and run settings."""

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

from . import dde
from .errors import ScenarioError
from .history import DEFAULT_GRID, History
from .model import _POSITIVE, Parameters
from .sde import SCHEME_HEUN, SCHEMES

_PARAM_KEYS = {f.name for f in fields(Parameters)}
_REQUIRED_PARAMS = [f.name for f in fields(Parameters) if f.default is MISSING]
_HISTORY_KEYS = {
    "constant": {"preset", "s0", "q0", "i0", "n_grid"},
    "zero-phage": {"preset", "s0", "i0", "n_grid"},
    "table": {"preset", "s", "q", "i0"},
}
_TOP_KEYS = {"parameters", "history", "run"}

# Steps of tau/K a run may take to reach T; at 4-8 us and 440 bytes a dde
# step, `simulate` at the limit takes about 15 s and 0.5 GB (docs/scenario-schema.md)
MAX_STEPS = 10**6


@dataclass
class RunSettings:
    T: float = 50.0
    K: int = 64
    n: int = 400
    seed: int = 0
    eps_list: list = field(default_factory=lambda: [0.05, 0.02, 0.01])
    rho: float = 0.05
    kappa1: float = 1.2
    kappa2: float = 2.0
    scheme: str = SCHEME_HEUN
    outdir: str = "out"
    window: Optional[list] = None


_RUN_KEYS = {f.name for f in fields(RunSettings)}


@dataclass
class Scenario:
    parameters: Parameters
    history_spec: dict
    run: RunSettings

    def history(self):
        spec = self.history_spec
        tau = self.parameters.tau
        preset = spec["preset"]
        try:
            if preset == "constant":
                return History.constant(
                    tau, spec["s0"], spec["q0"], spec["i0"],
                    n_grid=spec.get("n_grid", DEFAULT_GRID),
                )
            if preset == "zero-phage":
                return History.zero_phage(
                    tau, spec["s0"], spec["i0"], n_grid=spec.get("n_grid", DEFAULT_GRID)
                )
            return History(tau, spec["s"], spec["q"], spec["i0"])
        except Exception as exc:  # surface numeric validation as a scenario problem
            raise ScenarioError(f"invalid history: {exc}") from exc

    def to_dict(self):
        return {
            "parameters": {k: getattr(self.parameters, k) for k in sorted(_PARAM_KEYS)},
            "history": dict(self.history_spec),
            "run": {k: v for k, v in asdict(self.run).items() if v is not None},
        }

    def emit(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _reject_unknown(given, allowed, where):
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _require(mapping, keys, where):
    missing = sorted(k for k in keys if k not in mapping)
    if missing:
        raise ScenarioError(f"missing key(s) in {where}: {', '.join(missing)}")


def _number(mapping, key, where, *, integer=False, minimum=None, strict=False):
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}.{key} must be a number, got {value!r}")
    if integer and int(value) != value:
        raise ScenarioError(f"{where}.{key} must be an integer, got {value!r}")
    # written so that NaN fails too
    if minimum is not None and not (value > minimum if strict else value >= minimum):
        cmp = ">" if strict else ">="
        raise ScenarioError(f"{where}.{key} must be {cmp} {minimum}, got {value!r}")
    return int(value) if integer else float(value)


def from_dict(doc):
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "scenario")
    _require(doc, ("parameters", "history"), "scenario")

    params = doc["parameters"]
    _reject_unknown(params, _PARAM_KEYS, "parameters")
    _require(params, _REQUIRED_PARAMS, "parameters")
    kwargs = {}
    for key in _PARAM_KEYS:
        if key in params:
            strict = key in _POSITIVE
            kwargs[key] = _number(params, key, "parameters", minimum=0.0, strict=strict)
    try:
        parameters = Parameters(**kwargs)
    except Exception as exc:
        raise ScenarioError(f"invalid parameters: {exc}") from exc

    hist = doc["history"]
    if not isinstance(hist, dict) or "preset" not in hist:
        raise ScenarioError("history must be an object with a 'preset' key")
    preset = hist["preset"]
    if preset not in _HISTORY_KEYS:
        raise ScenarioError(
            f"unknown history preset {preset!r}; choose from {sorted(_HISTORY_KEYS)}"
        )
    _reject_unknown(hist, _HISTORY_KEYS[preset], "history")
    required = _HISTORY_KEYS[preset] - {"n_grid"}
    _require(hist, sorted(required - {"preset"}), "history")
    for key in hist:
        if key in ("preset", "s", "q"):
            continue
        _number(hist, key, "history", integer=(key == "n_grid"), minimum=0.0)

    run_doc = doc.get("run", {})
    _reject_unknown(run_doc, _RUN_KEYS, "run")
    run = RunSettings()
    if "T" in run_doc:
        run.T = _number(run_doc, "T", "run", minimum=0.0, strict=True)
    if "K" in run_doc:
        run.K = _number(run_doc, "K", "run", integer=True, minimum=8)
    try:
        n_steps = dde.step_count(run.T, parameters.tau / run.K)
    except OverflowError:  # T/h is infinite, or K is too large for a float
        n_steps = math.inf
    if n_steps > MAX_STEPS:
        raise ScenarioError(
            f"run.T = {run.T:g} at tau/K = {parameters.tau:g}/{run.K} needs {n_steps:.7g} "
            f"steps; the limit is {MAX_STEPS} steps"
        )
    if "n" in run_doc:
        run.n = _number(run_doc, "n", "run", integer=True, minimum=1)
    if "seed" in run_doc:
        run.seed = _number(run_doc, "seed", "run", integer=True, minimum=0)
    if "eps_list" in run_doc:
        eps_list = run_doc["eps_list"]
        if not isinstance(eps_list, list) or not eps_list:
            raise ScenarioError("run.eps_list must be a nonempty list of numbers")
        run.eps_list = [
            _number({"e": e}, "e", "run.eps_list", minimum=0.0) for e in eps_list
        ]
    if "rho" in run_doc:
        run.rho = _number(run_doc, "rho", "run", minimum=0.0, strict=True)
    if "kappa1" in run_doc:
        run.kappa1 = _number(run_doc, "kappa1", "run", minimum=1.0, strict=True)
    if "kappa2" in run_doc:
        run.kappa2 = _number(run_doc, "kappa2", "run", minimum=1.0, strict=True)
    if run.kappa2 <= run.kappa1:
        raise ScenarioError("run.kappa2 must exceed run.kappa1")
    if "scheme" in run_doc:
        if run_doc["scheme"] not in SCHEMES:
            raise ScenarioError(f"run.scheme must be one of {SCHEMES}")
        run.scheme = run_doc["scheme"]
    if "outdir" in run_doc:
        if not isinstance(run_doc["outdir"], str):
            raise ScenarioError("run.outdir must be a string")
        run.outdir = run_doc["outdir"]
    if "window" in run_doc:
        win = run_doc["window"]
        if (
            not isinstance(win, list)
            or len(win) != 2
            or not all(isinstance(v, (int, float)) for v in win)
            or not win[0] < win[1]
        ):
            raise ScenarioError("run.window must be [t_a, t_b] with t_a < t_b")
        if win[0] < 0.0 or win[1] > run.T:
            raise ScenarioError(
                f"run.window [{win[0]:g}, {win[1]:g}] must lie inside [0, T] = [0, {run.T:g}]"
            )
        run.window = [float(win[0]), float(win[1])]

    scenario = Scenario(parameters=parameters, history_spec=dict(hist), run=run)
    scenario.history()  # fail fast on unusable history values
    return scenario


def parse_scenario(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return from_dict(doc)
