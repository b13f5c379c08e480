import csv
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import phagesim
from phagesim import Parameters, cli, csvio, dde, scenario
from phagesim.dde import MAX_STEPS, integrate
from phagesim.errors import DomainError, ScenarioError
from phagesim.scenario import _PARAM_RULES, RunSettings, from_dict, parse_scenario
from phagesim.sde import SCHEMES

from artifacts import read_csv
from conftest import CONCENTRATION_SCENARIO, REFERENCE_SCENARIO, peak_bytes
from model_reference import dense_rows, dense_times, scalar_eval


def load_reference_doc():
    with open(REFERENCE_SCENARIO) as fh:
        return json.load(fh)


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


class TestScenarioParsing:
    def test_reference_scenario(self):
        sc = parse_scenario(REFERENCE_SCENARIO)
        assert sc.parameters.d == 20.0
        assert sc.parameters.tau == 1.0
        assert sc.run.eps_list == [0.05, 0.02, 0.01]
        assert sc.run.scheme == "stratonovich-heun"
        hist = sc.history
        assert hist.s(0.0) == pytest.approx(0.5)
        assert hist.q(-0.3) == pytest.approx(10.0)
        assert hist.i0 == 1.0

    def test_concentration_scenario(self):
        sc = parse_scenario(CONCENTRATION_SCENARIO)
        assert sc.parameters.d == 2.4
        assert sc.run.seed == 2024

    def test_defaults_applied(self, tmp_path):
        doc = load_reference_doc()
        del doc["run"]
        sc = parse_scenario(write_doc(tmp_path, doc))
        assert sc.run.T == 50.0
        assert sc.run.K == 64
        assert sc.run.rho == 0.05

    def test_unknown_parameter_key_rejected(self, tmp_path):
        doc = load_reference_doc()
        doc["parameters"]["betta"] = 3.0
        with pytest.raises(ScenarioError, match="betta"):
            parse_scenario(write_doc(tmp_path, doc))

    def test_unknown_run_key_rejected(self):
        doc = load_reference_doc()
        doc["run"]["burnin"] = 5
        with pytest.raises(ScenarioError, match="burnin"):
            from_dict(doc)

    def test_negative_tau_names_the_field(self):
        doc = load_reference_doc()
        doc["parameters"]["tau"] = -1.0
        with pytest.raises(ScenarioError, match="tau"):
            from_dict(doc)

    def test_missing_parameter_named(self):
        doc = load_reference_doc()
        del doc["parameters"]["mu"]
        with pytest.raises(ScenarioError, match="mu"):
            from_dict(doc)

    def test_boolean_is_not_a_number(self):
        doc = load_reference_doc()
        doc["parameters"]["alpha"] = True
        with pytest.raises(ScenarioError, match="alpha"):
            from_dict(doc)

    def test_bad_window_rejected(self):
        doc = load_reference_doc()
        doc["run"]["window"] = [30.0, 10.0]
        with pytest.raises(ScenarioError, match="window"):
            from_dict(doc)

    @pytest.mark.parametrize("window", [[-1.0, 10.0], [10.0, 80.0]])
    def test_window_outside_horizon_rejected(self, window):
        doc = load_reference_doc()  # T = 50
        doc["run"]["window"] = window
        with pytest.raises(ScenarioError, match="window"):
            from_dict(doc)

    @pytest.mark.parametrize(
        "T, steps", [(15625.0, None), (15625.02, "1000002"), (1e300, "6.4e+301")]
    )
    def test_step_limit(self, T, steps):
        doc = load_reference_doc()  # tau/K = 1/64, so T = 15 625 takes MAX_STEPS steps
        doc["run"]["T"] = T
        if steps is None:
            assert from_dict(doc).run.T == T
            return
        message = f"needs {steps} steps; the limit is {MAX_STEPS} steps"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            from_dict(doc)

    def test_nan_horizon_rejected(self):
        doc = load_reference_doc()
        doc["run"]["T"] = float("nan")
        with pytest.raises(ScenarioError, match="run.T must be > 0.0, got nan"):
            from_dict(doc)

    def test_bad_kappa_order_rejected(self):
        doc = load_reference_doc()
        doc["run"]["kappa1"] = 3.0
        with pytest.raises(ScenarioError, match="kappa2"):
            from_dict(doc)

    def test_empty_eps_list_rejected(self):
        doc = load_reference_doc()
        doc["run"]["eps_list"] = []
        with pytest.raises(ScenarioError, match="eps_list"):
            from_dict(doc)

    def test_unknown_scheme_rejected(self):
        doc = load_reference_doc()
        doc["run"]["scheme"] = "milstein"
        with pytest.raises(ScenarioError, match="scheme"):
            from_dict(doc)

    def test_unknown_history_preset_rejected(self):
        doc = load_reference_doc()
        doc["history"] = {"preset": "sinusoid", "s0": 1.0}
        with pytest.raises(ScenarioError, match="preset"):
            from_dict(doc)

    def test_table_history_preset(self):
        doc = load_reference_doc()
        ts = np.linspace(-1.0, 0.0, 65)
        doc["history"] = {
            "preset": "table",
            "s": list(0.5 + 0.1 * ts * ts),
            "q": list(10.0 - ts),
            "i0": 1.0,
        }
        sc = from_dict(doc)
        hist = sc.history
        assert hist.s(-1.0) == pytest.approx(0.6, abs=1e-12)
        assert hist.q(0.0) == pytest.approx(10.0, abs=1e-12)

    def test_negative_table_history_rejected(self):
        doc = load_reference_doc()
        doc["history"] = {
            "preset": "table",
            "s": [0.5] * 65,
            "q": [1.0] * 32 + [-1.0] + [1.0] * 32,
            "i0": 1.0,
        }
        with pytest.raises(ScenarioError, match="history"):
            from_dict(doc)

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "parameters": {,}\n}\n')
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            parse_scenario(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("content, message", [
        # json.load refuses these with a plain ValueError or a RecursionError
        (json.dumps(load_reference_doc()).replace('"T": 50.0', '"T": ' + "1" * 5000).encode(),
         "Exceeds the limit"),
        (b'{"parameters": "\xff"}', "'utf-8' codec can't decode"),
        (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
    ], ids=["long-integer", "not-utf8", "deep-nesting"])
    def test_json_refusals(self, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ScenarioError, match=rf"bad\.json: unreadable JSON: {message}"):
            parse_scenario(str(path))


class TestRunRules:
    """RunSettings checks the run rules itself, so a library caller meets the CLI's rules."""

    @pytest.mark.parametrize("bad, message", [
        ({"T": 0.0}, "run.T must be > 0.0, got 0.0"),
        ({"K": 4}, "run.K must be >= 8, got 4"),
        ({"n": 0}, "run.n must be >= 1, got 0"),
        ({"seed": -1}, "run.seed must be >= 0, got -1"),
        ({"rho": -1.0}, "run.rho must be > 0.0, got -1.0"),
        ({"kappa1": 1.0}, "run.kappa1 must be > 1.0, got 1.0"),
        ({"kappa2": 0.5}, "run.kappa2 must be > 1.0, got 0.5"),
        ({"eps_list": []}, "run.eps_list must be a nonempty list of numbers"),
        ({"scheme": "milstein"}, f"run.scheme must be one of {SCHEMES}"),
        ({"outdir": 3}, "run.outdir must be a string"),
        ({"window": [30.0, 10.0]}, "run.window must be [t_a, t_b] with t_a < t_b"),
        ({"kappa1": 3.0, "kappa2": 2.0}, "run.kappa2 must exceed run.kappa1"),
        ({"window": [10.0, 80.0]}, "run.window [10, 80] must lie inside [0, T] = [0, 50]"),
    ], ids=["T", "K", "n", "seed", "rho", "kappa1", "kappa2", "eps_list", "scheme", "outdir",
            "window", "kappa-order", "window-inside-horizon"])
    def test_library_and_cli_refuse_alike(self, bad, message):
        doc = load_reference_doc()  # T = 50
        doc["run"].update(bad)
        with pytest.raises(ScenarioError) as library:
            RunSettings(**doc["run"])
        with pytest.raises(ScenarioError) as parsed:
            from_dict(doc)
        assert str(library.value) == str(parsed.value) == message

    def test_numbers_are_stored_as_their_rules_convert_them(self):
        run = RunSettings(T=5, K=64.0, eps_list=[0, 0.5], window=[0, 5])
        assert (run.T, run.K, run.eps_list, run.window) == (5.0, 64, [0.0, 0.5], [0.0, 5.0])
        assert [type(v) for v in (run.T, run.K, *run.eps_list, *run.window)] == [
            float, int, float, float, float, float]


SCHEMA_DOC = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "scenario-schema.md")


def _doc_table(heading):
    """The rows of the first table under a heading of the schema doc, as dicts by column."""
    with open(SCHEMA_DOC) as fh:
        lines = fh.read().split(heading, 1)[1].splitlines()
    start = next(j for j, line in enumerate(lines) if line.startswith("|"))
    table = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    header, _, *rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table]
    return [dict(zip(header, row)) for row in rows]


def _doc_rule(constraint):
    """(integer, minimum, strict, maximum) of a numeric constraint cell; None for another."""
    match = re.fullmatch(r"(integer )?(>=|>) (\S+)", constraint)
    if match:
        return (bool(match[1]), float(match[3]), match[2] == ">", None)
    match = re.fullmatch(r"(integer )?in \[(\S+), (\d+)\*\*(\d+) - (\d+)\]", constraint)
    if match:  # the doc writes a maximum as b**e - c
        maximum = int(match[3]) ** int(match[4]) - int(match[5])
        return (bool(match[1]), float(match[2]), False, maximum)
    return None


class TestSchema:
    """The dataclass fields are the schema: rules, their order, and the doc that states them."""

    @pytest.mark.parametrize("heading, cls", [("## parameters", Parameters),
                                              ("## run", RunSettings)])
    def test_doc_tables_state_the_rules(self, heading, cls):
        rows = _doc_table(heading)
        assert [row["key"].strip("`") for row in rows] == [f.name for f in fields(cls)]
        if cls is Parameters:
            code = _PARAM_RULES
        else:
            code = {f.name: f.metadata.get("rule") for f in fields(cls)}
            for row, f in zip(rows, fields(cls)):
                written = row["default"].strip("`")
                default = None if written == "absent" else json.loads(written)
                assert default == getattr(RunSettings(), f.name), f.name
        assert {row["key"].strip("`"): _doc_rule(row["constraint"]) for row in rows} == code

    def test_doc_states_the_sample_limit(self):
        with open(SCHEMA_DOC) as fh:
            section = fh.read().split("## history", 1)[1].split("\n## ", 1)[0]
        # a grid's n_grid + 1 samples and a table's lists, each preset's limit
        stated = re.findall(r"at most\s+(\d[\d ]*) samples", section)
        assert [int(n.replace(" ", "")) for n in stated] == [MAX_STEPS, MAX_STEPS]
        grid = re.search(r"`n_grid`\s.*?at most (\d[\d ]*),", section, re.S)[1]
        assert int(grid.replace(" ", "")) == scenario._GRID_RULE[3]

    def test_first_bad_field_is_reported_for_any_hash_seed(self, tmp_path):
        doc = load_reference_doc()
        doc["parameters"].update(alpha=-1, mu="x", tau=0)
        path = write_doc(tmp_path, doc)
        child = (
            "import sys\n"
            "from phagesim.scenario import parse_scenario\n"
            "try:\n"
            "    parse_scenario(sys.argv[1])\n"
            "except Exception as exc:\n"
            "    print(exc)\n"
        )
        src_dir = os.path.dirname(os.path.dirname(phagesim.__file__))
        messages = set()
        for seed in range(6):
            env = {**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": str(seed)}
            proc = subprocess.run([sys.executable, "-c", child, path], capture_output=True,
                                  text=True, timeout=30, env=env, check=True)
            messages.add(proc.stdout)
        assert messages == {"parameters.alpha must be > 0.0, got -1\n"}

    @pytest.mark.parametrize("change, message", [
        (dict(run="T"), "run must be an object, got str"),
        (dict(run=[]), "run must be an object, got list"),
        (dict(parameters="abc"), "parameters must be an object, got str"),
        (dict(history={"preset": ["x"], "s0": 0.5, "q0": 10.0, "i0": 1.0}),
         "unknown history preset ['x']"),
    ])
    def test_section_and_preset_types(self, tmp_path, capsys, change, message):
        doc = load_reference_doc()
        doc.update(change)
        assert cli.main(["validate", write_doc(tmp_path, doc)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith(f"error:parse: {message}")

    def test_seed_fits_the_noise_key(self):
        doc = load_reference_doc()
        doc["run"]["seed"] = 2**64 - 1
        assert from_dict(doc).run.seed == 2**64 - 1
        doc["run"]["seed"] = 2**64  # the noise streams would key it as seed 0
        message = f"run.seed must be <= {2**64 - 1}, got {2**64}"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            from_dict(doc)

    @pytest.mark.parametrize("window, message", [
        ([True, 3], "run.window[0] must be a number, got True"),
        ([0.0, "3"], "run.window[1] must be a number, got '3'"),
    ])
    def test_window_entries_are_numbers(self, window, message):
        doc = load_reference_doc()
        doc["run"]["window"] = window
        with pytest.raises(ScenarioError, match=re.escape(message)):
            from_dict(doc)

    @pytest.mark.parametrize("section, key, value, message", [
        ("run", "K", float("inf"), "run.K must be an integer, got inf"),
        ("run", "n", float("nan"), "run.n must be an integer, got nan"),
        ("run", "seed", float("-inf"), "run.seed must be an integer, got -inf"),
        ("run", "T", 10**400, "run.T must be a finite number, got 1000"),
        ("parameters", "alpha", -10**400, "parameters.alpha must be a finite number, got -1000"),
        ("history", "i0", 10**400, "history.i0 must be a finite number, got 1000"),
    ])
    def test_numbers_outside_the_float_or_integer_range(self, section, key, value, message):
        doc = load_reference_doc()
        doc[section][key] = value
        with pytest.raises(ScenarioError, match=re.escape(message)):
            from_dict(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("run", "seed", 10**400), ("run", "K", -10**400), ("parameters", "alpha", 10**400),
    ])
    def test_long_integers_are_counted_not_echoed(self, tmp_path, capsys, section, key, value):
        # json reads integers of up to 4 300 digits; a refusal names the key and the digits
        doc = load_reference_doc()
        doc[section][key] = value
        assert cli.main(["validate", write_doc(tmp_path, doc)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith(f"error:parse: {section}.{key} must be ")
        assert err.endswith(" (an integer of 401 digits)\n")

    def test_integral_float_grid(self):
        doc = load_reference_doc()
        doc["history"]["n_grid"] = 32.0
        assert len(from_dict(doc).history.grid) == 33

    def test_allocation_failure_is_not_a_bad_history(self, tmp_path, capsys, monkeypatch):
        class Unallocatable:
            @classmethod
            def constant(cls, *args, **kwargs):
                raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(scenario, "History", Unallocatable)
        assert cli.main(["validate", REFERENCE_SCENARIO]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err == "error:resource: out of memory: Unable to allocate 7.45 GiB\n"


class TestCsv:
    def test_round_trip_full_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(0.1, 1.0 / 3.0, 7), (2.0**-40, np.float64(1e300), -3)]
        csvio.write_csv(["a", "b", "c"], rows, path)
        header, arr = read_csv(path)
        assert header == ["a", "b", "c"]
        assert arr[0, 1] == 1.0 / 3.0  # exact after a 17-digit round trip
        assert arr[1, 0] == 2.0**-40

    def test_header_only_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        csvio.write_csv(["x", "y"], [], path)
        header, arr = read_csv(path)
        assert header == ["x", "y"]
        assert arr.shape == (0, 2)
        assert path.read_text() == "x,y\n"

    def test_single_row_lf_endings(self, tmp_path):
        path = tmp_path / "one.csv"
        csvio.write_csv(["x"], [(1.5,)], path)
        assert path.read_bytes() == b"x\n1.5\n"

    def test_trajectory_rows_dense_resampling(self, p_star, hist_standard, tmp_path):
        traj = integrate(p_star, hist_standard, T=2.0, K=16)
        path = tmp_path / "traj.csv"
        csvio.write_trajectory(traj, path, dense_dt=0.5)
        header, arr = read_csv(path)
        assert header == ["t", "S", "I", "Q"]
        assert arr[:, 0] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0], abs=1e-12)
        for row in arr:
            assert row[1:] == pytest.approx(traj.eval(row[0]), rel=1e-15)


    # the last two pass the row limit of `simulate --dense`: 1e300 rows and MAX_STEPS + 1
    @pytest.mark.parametrize("dt", [0.0, -0.5, float("nan"), float("inf"), 5e-324, 1e-310,
                                    1e-300, 1.0 / MAX_STEPS])
    def test_trajectory_rows_rejects_bad_step(self, p_star, hist_standard, dt):
        traj = integrate(p_star, hist_standard, T=1.0, K=16)
        with pytest.raises(DomainError, match="dense"):
            next(csvio.trajectory_rows(traj, dense_dt=dt))

    def test_dense_grid_ends_exactly_at_t_end(self, p_star, hist_standard):
        traj = integrate(p_star, hist_standard, T=1.0, K=16)
        times = [row[0] for row in csvio.trajectory_rows(traj, dense_dt=0.1)]
        assert len(times) == 11
        assert times[-1] == traj.t_end == 1.0
        assert times == [k * 0.1 for k in range(11)]


def _csv_writer_bytes(header, rows):
    """The table as csv.writer writes it, with cells formatted as write_csv promises."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([
            str(int(v)) if isinstance(v, (int, np.integer)) else format(float(v), ".17g")
            for v in row
        ])
    return buf.getvalue().encode()


_EDGE_FLOATS = [-0.0, 5e-324, 1e300, -1e-300, float("inf"), float("nan")]


class TestCsvBytes:
    """write_csv's files equal a csv.writer reference byte for byte."""

    @pytest.fixture(scope="class")
    def traj(self, p_star, hist_standard):
        traj = integrate(p_star, hist_standard, T=2.0, K=16)
        traj.states[3, :] = _EDGE_FLOATS[:3]
        traj.states[4, :] = _EDGE_FLOATS[3:]
        return traj

    def test_trajectory_three_and_two_columns(self, traj, tmp_path):
        for table, header in ((traj, ["t", "S", "I", "Q"]), (traj.sq(), ["t", "S", "Q"])):
            path = tmp_path / "traj.csv"
            csvio.write_trajectory(table, path)
            rows = [(t, *y) for t, y in zip(table.times, table.states)]
            assert path.read_bytes() == _csv_writer_bytes(header, rows)

    def test_dense_trajectory(self, p_star, hist_standard, tmp_path):
        traj = integrate(p_star, hist_standard, T=2.0, K=16)
        path = tmp_path / "dense.csv"
        csvio.write_trajectory(traj, path, dense_dt=0.3)
        rows = [(t, *traj.eval(t)) for t in [min(k * 0.3, traj.t_end) for k in range(7)]]
        assert path.read_bytes() == _csv_writer_bytes(["t", "S", "I", "Q"], rows)

    @pytest.mark.parametrize("dt, chunk", [
        (0.01, csvio.ROW_CHUNK),  # divides T = 50: 5 001 rows, two chunks
        (0.0123, csvio.ROW_CHUNK),  # does not divide T
        (0.3, 7),  # does not divide T: 167 rows in chunks of 7
        (0.3, 167),  # the second chunk holds only k = 167, whose 50.1 is past T
        (100.0, csvio.ROW_CHUNK),  # past T: the one row at t = 0
    ])
    def test_dense_rows_are_the_scalar_loop(self, p_star, hist_standard, tmp_path, monkeypatch,
                                            dt, chunk):
        # the array rows against one scalar evaluation a row, on three and two columns
        monkeypatch.setattr(csvio, "ROW_CHUNK", chunk)
        traj = integrate(p_star, hist_standard, T=50.0, K=64)
        for table, header in ((traj, ["t", "S", "I", "Q"]), (traj.sq(), ["t", "S", "Q"])):
            csvio.write_trajectory(table, tmp_path / "rows.csv", dense_dt=dt)
            csvio.write_csv(header, dense_rows(table, dt), tmp_path / "ref.csv")
            assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_dense_rows_past_a_rounded_quotient(self, p_star, hist_standard):
        # (1 + 1e-12) / dt rounds to 44.99999999999999, yet 45 dt rounds to within the
        # bound: the candidates run to floor(bound / dt) + 1
        traj = integrate(p_star, hist_standard, T=1.0, K=64)
        dt = 0.02222222222224445
        rows = list(csvio.trajectory_rows(traj, dt))
        assert rows == list(dense_rows(traj, dt))
        assert len(rows) == 46 and rows[-1][0] == traj.t_end

    def test_node_rows_are_the_states(self, p_star, hist_standard, tmp_path, monkeypatch):
        # eval at the node times is each node's state, across chunk boundaries too
        monkeypatch.setattr(csvio, "ROW_CHUNK", 1000)
        traj = integrate(p_star, hist_standard, T=50.0, K=64)
        csvio.write_trajectory(traj, tmp_path / "rows.csv")
        rows = zip(traj.times.tolist(), *traj.states.T.tolist())
        csvio.write_csv(["t", "S", "I", "Q"], rows, tmp_path / "ref.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_dense_rows_at_the_row_limit(self, p_star, hist_standard):
        # T / dt + 1 = MAX_STEPS rows, the most `simulate --dense` writes: every time
        # is the scalar loop's, and every 997th row and the last are its states
        traj = integrate(p_star, hist_standard, T=50.0, K=64)
        dt = traj.t_end / (MAX_STEPS - 1)
        pairs = itertools.zip_longest(csvio.trajectory_rows(traj, dt), dense_times(traj.t_end, dt))
        for k, (row, t) in enumerate(pairs):
            assert row is not None and row[0] == t
            if k % 997 == 0 or t == traj.t_end:
                assert row[1:] == tuple(scalar_eval(traj, t).tolist())
        assert k + 1 == MAX_STEPS and t == traj.t_end

    def test_ensemble_table(self, tmp_path):
        n = 5
        stats = SimpleNamespace(
            times=np.linspace(0.0, 1.0, n),
            mean=np.array([[0.1, -0.0, 5e-324]] * n) * np.arange(1, n + 1)[:, None],
            dev_p50=np.array(_EDGE_FLOATS[:n]),
            dev_p95=np.full(n, 1e300),
        )
        path = tmp_path / "ens.csv"
        csvio.write_ensemble(stats, path)
        rows = [(t, *m, a, b) for t, m, a, b in zip(stats.times, stats.mean, stats.dev_p50, stats.dev_p95)]
        header = ["t", "mean_S", "mean_I", "mean_Q", "dev_p50", "dev_p95"]
        assert path.read_bytes() == _csv_writer_bytes(header, rows)

    def test_concentration_table(self, tmp_path):
        fields = ["eps", "rho", "t_lo", "t_hi", "n", "exceed", "p_hat", "ci_lo", "ci_hi"]
        values = [
            (0.05, 0.3, 10.0, 30.0, 400, np.int64(373), 373 / 400, -0.0, 1.0),
            (0.01, 1e300, 5e-324, 30.0, np.int64(2000), 0, 0.0, 0.0, 1.0 / 3.0),
        ]
        table = SimpleNamespace(rows=[SimpleNamespace(**dict(zip(fields, v))) for v in values])
        path = tmp_path / "conc.csv"
        csvio.write_concentration(table, path)
        assert path.read_bytes() == _csv_writer_bytes(fields, values)


def _cli_run(argv, capsys, outdir):
    """Exit code, stdout and the bytes of every artifact of one in-process call into outdir."""
    shutil.rmtree(outdir, ignore_errors=True)
    code = cli.main([*argv, "--outdir", str(outdir)])
    files = outdir.iterdir() if outdir.exists() else ()  # some commands write none
    return code, capsys.readouterr().out, {f.name: f.read_bytes() for f in files}


class TestReusedParser:
    """`main` parses every call of a process with one parser, built by the first call."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self):
        child = "import phagesim.cli as cli; print(cli.build_parser.cache_info().currsize)"
        src_dir = os.path.dirname(os.path.dirname(phagesim.__file__))
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              timeout=30, env={**os.environ, "PYTHONPATH": src_dir}, check=True)
        assert proc.stdout == "0\n"

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["simulate", "--dense", "0.3"], ["simulate-sde", "--paths", "1"],
        ["compare-coinfection"], ["equilibria"],
    ], ids=" ".join)
    def test_same_call_twice(self, tmp_path, capsys, argv):
        argv = [argv[0], REFERENCE_SCENARIO, *argv[1:]]
        first = _cli_run(argv, capsys, tmp_path / "out")
        assert first[0] == cli.EXIT_OK
        assert _cli_run(argv, capsys, tmp_path / "out") == first

    def test_valid_call_after_refusals(self, tmp_path, capsys):
        argv = ["simulate", REFERENCE_SCENARIO]
        first = _cli_run(argv, capsys, tmp_path / "out")
        assert first[0] == cli.EXIT_OK and "trajectory.csv" in first[2]
        for refused in (["simulate"], ["simulate-sde", REFERENCE_SCENARIO, "--paths", "x"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(refused)
            assert exc.value.code == 2
        capsys.readouterr()
        assert _cli_run(argv, capsys, tmp_path / "out") == first

    def test_command_looked_up_when_run(self, capsys, monkeypatch):
        # the parser names the cmd_* function, so one replaced after it was built runs
        argv = ["equilibria", REFERENCE_SCENARIO]
        assert cli.main(argv) == cli.EXIT_OK
        calls = []
        monkeypatch.setattr(cli, "cmd_equilibria", lambda args: calls.append(args.scenario) or 7)
        assert cli.main(argv) == 7 and calls == [REFERENCE_SCENARIO]


_EVERY_COMMAND = [
    ["validate"], ["equilibria"], ["simulate"], ["simulate-sde", "--paths", "1"],
    ["simulate-sde", "--paths", "3"], ["mc-concentration"], ["min-dose"],
    ["compare-coinfection"],
]


class TestCli:
    def test_validate_reference_passes(self, capsys):
        assert cli.main(["validate", REFERENCE_SCENARIO]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_validate_json_artifact(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = cli.main(["validate", REFERENCE_SCENARIO, "--json", str(report_path)])
        assert code == cli.EXIT_OK
        doc = json.loads(report_path.read_text())
        assert doc["passed"] is True

    @pytest.mark.parametrize("M", [1e15, 1e17, 1e300])
    def test_validate_scans_sigma_at_a_large_M(self, tmp_path, capsys, M):
        # the scan's lattice index passes int64 from M of about 9.2e14, and from M = 2**52
        # float64 holds no point inside the bridge; the sigma entries pass at any M
        doc = load_reference_doc()
        doc["parameters"]["M"] = M
        report = tmp_path / "report.json"
        code = cli.main(["validate", write_doc(tmp_path, doc), "--json", str(report)])
        checks = json.loads(report.read_text())["checks"]
        sigma = [c["pass"] for c in checks if c["id"].startswith("sigma-")]
        assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION) and sigma == [True] * 3

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        doc = load_reference_doc()
        doc["parameters"]["d"] = 10.0  # below the minimal dose
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", path]) == cli.EXIT_VALIDATION
        assert "FAIL" in capsys.readouterr().out

    def test_equilibria_output(self, tmp_path, capsys):
        json_path = tmp_path / "eq.json"
        assert cli.main(["equilibria", REFERENCE_SCENARIO, "--json", str(json_path)]) == 0
        assert "eigenvalues at E0" in capsys.readouterr().out
        doc = json.loads(json_path.read_text())
        assert doc["e0"] == [0.0, 0.0, 20.0]

    def test_simulate_writes_trajectory(self, tmp_path, capsys):
        code = cli.main(["simulate", REFERENCE_SCENARIO, "--outdir", str(tmp_path)])
        assert code == cli.EXIT_OK
        header, arr = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "S", "I", "Q"]
        assert len(arr) == 64 * 50 + 1
        out = capsys.readouterr().out
        assert "decay fit" in out
        assert "stays inside" in out

    # (command, section, update, start and end of stderr): the refusals of a model whose
    # numbers leave no window, each exit 3 as error:model:
    @pytest.mark.parametrize("cmd, section, update, start, end", [
        ("mc-concentration", "run", {"rho": 1e6}, "rho=1e+06 >= decay prefactor c=",
         "; the window is empty"),
        ("mc-concentration", "parameters", {"d": 1.0}, "E0 is not attracting (eta <= 0)",
         "; no window exists"),
        ("mc-concentration", "run", {"kappa2": 1.2000001}, "window [", "] contains no nodes"),
        ("simulate", "run", {"window": [10.0, 10.001]}, "window contains fewer than two nodes",
         ""),
    ], ids=["rho-at-prefactor", "eta-not-positive", "window-without-nodes",
            "window-of-one-node"])
    def test_model_refusals(self, tmp_path, capsys, cmd, section, update, start, end):
        doc = load_reference_doc()
        doc[section].update(update)
        code = cli.main([cmd, write_doc(tmp_path, doc), "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith(f"error:model: {start}") and err.endswith(f"{end}\n")
        assert err.count("\n") == 1

    def test_simulate_without_e0_writes_nothing(self, tmp_path, capsys):
        doc = load_reference_doc()
        doc["parameters"]["d"] = 200.0  # d/m = 200 >= M = 100
        path = write_doc(tmp_path, doc)
        code = cli.main(["simulate", path, "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.err == (
            "error:model: bacteria-free equilibrium needs d/m < M, got d/m=200 >= M=100\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_simulate_short_window_integrates_nothing(self, tmp_path, capsys, monkeypatch):
        doc = load_reference_doc()
        doc["run"]["window"] = [10.0, 10.001]  # the one node t = 10
        path = write_doc(tmp_path, doc)

        def no_run(*args):
            raise AssertionError("the window is counted before anything is integrated")

        monkeypatch.setattr(phagesim.dde, "integrate", no_run)
        code = cli.main(["simulate", path, "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.err == "error:model: window contains fewer than two nodes\n"
        assert captured.out == ""
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    @pytest.mark.parametrize("cmd", ["simulate", "compare-coinfection"])
    def test_run_too_short_to_fit_integrates_nothing(self, tmp_path, capsys, monkeypatch, cmd):
        # T = 0.03 at h = 1/64 is 2 steps, 3 nodes; the automatic fit window needs 4
        doc = load_reference_doc()
        doc["run"]["T"] = 0.03
        path = write_doc(tmp_path, doc)

        def no_run(*args):
            raise AssertionError("the nodes are counted before anything is integrated")

        monkeypatch.setattr(phagesim.dde, "integrate", no_run)
        code = cli.main([cmd, path, "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.err == (f"error:model: a run of 3 nodes is too short for the decay fit, "
                                f"whose automatic window needs at least {dde.AUTO_FIT_NODES}\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_run_of_enough_nodes_fits(self, tmp_path, capsys):
        # T = 0.04 is 3 steps: 4 nodes, which the automatic window fits on nodes 1 and 2
        doc = load_reference_doc()
        doc["run"]["T"] = 0.04
        path = write_doc(tmp_path, doc)
        for cmd in ("simulate", "compare-coinfection"):
            assert cli.main([cmd, path, "--outdir", str(tmp_path / "out")]) == cli.EXIT_OK
        assert len(read_csv(tmp_path / "out" / "trajectory.csv")[1]) == dde.AUTO_FIT_NODES

    @pytest.mark.parametrize("params, run", [
        # d/m < M by one ulp while m*M rounds to d: E0 exists, and so does the region
        (dict(d=72.17629231756851, m=7.1148057792558435, M=10.144520392672986), dict(T=5.0)),
        # a window that ends at a T which step_count ends on the node 50
        ({}, dict(T=50.00000000001, window=[10.0, 50.00000000001])),
    ], ids=["capacity-edge", "window-at-T"])
    def test_simulate_on_the_edges(self, tmp_path, capsys, params, run):
        doc = load_reference_doc()
        doc["parameters"].update(params)
        doc["run"].update(run)
        path = write_doc(tmp_path, doc)
        assert cli.main(["simulate", path, "--outdir", str(tmp_path / "out")]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "decay fit" in out and "region monitor" in out

    def test_simulate_dense_resampling(self, tmp_path):
        code = cli.main(
            ["simulate", REFERENCE_SCENARIO, "--outdir", str(tmp_path), "--dense", "1.0"]
        )
        assert code == cli.EXIT_OK
        _, arr = read_csv(tmp_path / "trajectory.csv")
        assert len(arr) == 51

    @pytest.mark.parametrize("dense", ["0", "-1", "nan", "inf"])
    def test_simulate_bad_dense_step(self, tmp_path, capsys, dense):
        code = cli.main(
            ["simulate", REFERENCE_SCENARIO, "--outdir", str(tmp_path), "--dense", dense]
        )
        assert code == cli.EXIT_IO
        assert "error:parse: --dense" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_simulate_dense_rows_refused_before_integrating(self, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("the dense rows are counted before integrating")

        monkeypatch.setattr(phagesim.dde, "integrate", no_run)
        start = time.perf_counter()
        code = cli.main(
            ["simulate", REFERENCE_SCENARIO, "--outdir", str(tmp_path), "--dense", "1e-9"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err == ("error:parse: --dense 1e-09 to the trajectory's end t = 50 gives "
                       f"5e+10 rows; the limit is {MAX_STEPS} rows\n")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_simulate_dense_rows_counted_to_the_trajectory_end(self, tmp_path, capsys,
                                                               monkeypatch):
        # T = 50.001 is off the lattice of h = 1/64, so the rows run to 3 201 h = 50.015625:
        # 1 000 000 rows from T, 1 000 292 to the end, where the CSV is written to
        def no_run(*args):
            raise AssertionError("the dense rows are counted before integrating")

        doc = load_reference_doc()
        doc["run"]["T"] = 50.001
        path = write_doc(tmp_path, doc)
        monkeypatch.setattr(phagesim.dde, "integrate", no_run)
        out = tmp_path / "out"
        code = cli.main(["simulate", path, "--outdir", str(out), "--dense", str(50.001 / 999999)])
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:parse: --dense")
        assert "to the trajectory's end t = 50.0156 gives 1000292 rows" in err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("dense, code", [(0.125, cli.EXIT_OK), (0.1249, cli.EXIT_IO)])
    def test_simulate_dense_rows_at_the_limit(self, tmp_path, monkeypatch, dense, code):
        # T / dense + 1 = 401 rows at 0.125 is the limit; 400 steps keep the run inside it
        doc = load_reference_doc()
        doc["run"].update(T=50.0, K=8)
        path = write_doc(tmp_path, doc)
        monkeypatch.setattr(phagesim.dde, "MAX_STEPS", 401)
        out = tmp_path / "out"
        argv = ["simulate", path, "--outdir", str(out), "--dense", str(dense)]
        assert cli.main(argv) == code
        if code == cli.EXIT_OK:
            assert len(read_csv(out / "trajectory.csv")[1]) == 401

    @pytest.mark.parametrize("paths", ["0", "-3"])
    def test_simulate_sde_bad_path_count(self, tmp_path, capsys, paths):
        code = cli.main(
            ["simulate-sde", REFERENCE_SCENARIO, "--outdir", str(tmp_path), "--paths", paths]
        )
        assert code == cli.EXIT_IO
        captured = capsys.readouterr()
        assert "error:parse: --paths" in captured.err
        assert "ensemble" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_window_outside_horizon_exit_code(self, tmp_path, capsys):
        doc = load_reference_doc()
        doc["run"]["window"] = [10.0, 80.0]
        path = write_doc(tmp_path, doc)
        code = cli.main(["simulate", path, "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_IO
        assert "error:parse" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_window_exits_before_any_path(self, tmp_path, capsys, monkeypatch):
        doc = load_reference_doc()
        doc["run"]["window"] = [10.001, 10.002]  # between the nodes 10 and 10 + 1/64
        path = write_doc(tmp_path, doc)

        def no_paths(*args):
            raise AssertionError("the window is checked before any path is drawn")

        monkeypatch.setattr(phagesim.sde, "_increments", no_paths)
        code = cli.main(["simulate-sde", path, "--outdir", str(tmp_path / "out"),
                         "--paths", "400"])
        assert code == cli.EXIT_NUMERIC
        assert "window [10.001, 10.002] contains no nodes" in capsys.readouterr().err

    def test_simulate_sde_single_path(self, tmp_path, capsys):
        code = cli.main(
            ["simulate-sde", REFERENCE_SCENARIO, "--outdir", str(tmp_path), "--paths", "1"]
        )
        assert code == cli.EXIT_OK
        header, arr = read_csv(tmp_path / "sde_path.csv")
        assert header == ["t", "S", "I", "Q"]
        assert len(arr) == 64 * 50 + 1

    def test_simulate_sde_ensemble(self, tmp_path, capsys):
        code = cli.main(
            ["simulate-sde", REFERENCE_SCENARIO, "--outdir", str(tmp_path), "--paths", "20"]
        )
        assert code == cli.EXIT_OK
        header, arr = read_csv(tmp_path / "ensemble.csv")
        assert header == ["t", "mean_S", "mean_I", "mean_Q", "dev_p50", "dev_p95"]
        assert "mean sup-deviation" in capsys.readouterr().out

    def test_min_dose_output(self, capsys):
        assert cli.main(["min-dose", REFERENCE_SCENARIO]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "17.58303808" in out
        assert "-> pass" in out and "-> fail" in out

    def test_compare_coinfection(self, capsys):
        assert cli.main(["compare-coinfection", REFERENCE_SCENARIO]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "minimal dose = 17.58303808" in out
        assert "minimal dose = 5" in out
        assert "without coinfection" in out
        assert "coinfection slows convergence by factor 5 and raises" in out

    def test_compare_coinfection_on_a_short_horizon(self, tmp_path, capsys):
        # at T = 5 the k2 = 0 fit rate is -0.2389: their ratio is no slow-down factor
        doc = load_reference_doc()
        doc["run"]["T"] = 5.0
        assert cli.main(["compare-coinfection", write_doc(tmp_path, doc)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "fitted rate = -0.238857" in out
        assert "slows convergence" not in out and "factor -" not in out
        assert ("coinfection gives no convergence factor on this horizon (a fitted rate is "
                "not positive) and raises the dose by factor 3.52") in out

    def test_mc_concentration(self, tmp_path, capsys):
        with open(CONCENTRATION_SCENARIO) as fh:
            doc = json.load(fh)
        doc["run"]["n"] = 40  # keep the smoke run quick
        path = write_doc(tmp_path, doc)
        code = cli.main(["mc-concentration", path, "--outdir", str(tmp_path)])
        assert code == cli.EXIT_OK
        header, arr = read_csv(tmp_path / "concentration.csv")
        assert header[:2] == ["eps", "rho"]
        assert len(arr) == 3
        p_hats = arr[:, 6]
        assert np.all(np.diff(p_hats) <= 1e-12)  # non-increasing as eps shrinks

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["validate", str(path)]) == cli.EXIT_IO
        assert "error:parse" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert cli.main(["validate", str(tmp_path / "nope.json")]) == cli.EXIT_IO

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        # a blow-up, and an RK4 stage whose Q goes negative (k1 = 10)
        for params, history, run in (
            (dict(alpha=40.0, k1=1e-30, k2=0.0), {}, dict(T=2.0)),
            (dict(k1=10.0), dict(i0=0.0), dict(T=3.0, K=8)),
        ):
            doc = load_reference_doc()
            doc["parameters"].update(params)
            doc["history"].update(history)
            doc["run"].update(run)
            path = write_doc(tmp_path, doc)
            code = cli.main(["simulate", path, "--outdir", str(tmp_path)])
            assert code == cli.EXIT_NUMERIC
            assert "error:numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["simulate"], "trajectory.csv"),
        (["simulate-sde", "--paths", "1"], "sde_path.csv"),
        (["simulate-sde", "--paths", "3"], "ensemble.csv"),
        (["mc-concentration"], "concentration.csv"),
    ])
    def test_unwritable_csv_exit_code(self, tmp_path, capsys, argv, name):
        # a directory where the CSV goes: the OSError is an IO failure, exit 4
        doc = load_reference_doc()
        doc["run"].update(T=5.0, n=4, eps_list=[0.01])
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert cli.main([argv[0], path, "--outdir", str(out), *argv[1:]]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:io: ") and name in err

    def test_simulate_memory_follows_the_step_count(self, tmp_path, capsys):
        # K = 10**7 and T = 1e-6 are 10 steps: the delayed state holds the
        # history of those steps, not K slots (80 MB of pointers at this K)
        doc = load_reference_doc()
        doc["run"].update(K=10**7, T=1e-6)
        path = write_doc(tmp_path, doc)
        codes = []
        peak = peak_bytes(lambda: codes.append(
            cli.main(["simulate", path, "--outdir", str(tmp_path)])))
        assert codes == [cli.EXIT_OK]
        assert peak < 16e6
        assert len(read_csv(tmp_path / "trajectory.csv")[1]) == 11

    def test_json_digit_limit_exit_code(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"parameters": {"alpha": ' + "1" * 5000 + "}}")
        assert cli.main(["equilibria", str(path)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith(f"error:parse: {path}: unreadable JSON:")

    # Parameter draws on which a residual check of the characteristic
    # determinant at E0 raised RuntimeError (first) or OverflowError in exp
    # (second); the matrix is lower triangular, so the closed-form spectrum needs
    # no check. The exit 3s are the runs' own positivity failures.
    _DRAWS = {
        "residual": (dict(alpha=0.4512, k1=8.051, k2=0.6335, d=0.3439, m=0.012, b=1417.26,
                          mu=16.757, tau=1.1036, M=286.49), (0, 0, 0, 3)),
        "overflow": (dict(alpha=27.4954, k1=1.8341, k2=5e-4, d=53.7833, m=1.4e-3, b=414.56,
                          mu=0.0252, tau=28.36, M=394734.0), (0, 3, 3, 3)),
    }

    @pytest.mark.parametrize("draw", sorted(_DRAWS))
    def test_spectrum_needs_no_determinant_check(self, tmp_path, capsys, draw):
        params, codes = self._DRAWS[draw]
        doc = load_reference_doc()
        doc["parameters"].update(params)
        doc["run"].update(n=4, eps_list=[0.01])
        path = write_doc(tmp_path, doc)
        commands = ("equilibria", "simulate", "compare-coinfection", "mc-concentration")
        for command, code in zip(commands, codes):
            assert cli.main([command, path, "--outdir", str(tmp_path)]) == code, command
            err = capsys.readouterr().err
            assert (err == "") if code == 0 else err.startswith("error:numeric: ")

    # T = inf is refused as a non-finite number (test_non_finite_run_numbers_refused_at_parse)
    @pytest.mark.parametrize("run", [dict(T=1e300), dict(T=sys.float_info.max),
                                     dict(T=5.0, K=10**400)])
    def test_huge_horizon_refused_at_once(self, tmp_path, capsys, run):
        doc = load_reference_doc()
        doc["run"].update(run)
        path = write_doc(tmp_path, doc)
        start = time.perf_counter()
        code = cli.main(["simulate", path, "--outdir", str(tmp_path)])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:parse: run.T = ")
        assert f"steps; the limit is {MAX_STEPS} steps" in err

    def test_huge_history_grid_refused_at_parse(self, tmp_path, capsys):
        # 10**9 intervals would be two 8 GB sample arrays
        doc = load_reference_doc()
        doc["history"]["n_grid"] = 10**9
        path = write_doc(tmp_path, doc)
        codes = []
        start = time.perf_counter()
        peak = peak_bytes(lambda: codes.append(cli.main(["validate", path])))
        assert time.perf_counter() - start < 1.0
        assert peak < 1e6
        assert codes == [cli.EXIT_IO]
        assert capsys.readouterr().err == (
            f"error:parse: history.n_grid must be <= {MAX_STEPS - 1}, got {10**9}\n")

    def test_huge_history_table_refused_at_parse(self, tmp_path, capsys):
        # MAX_STEPS + 1 samples, one over the grids' limit, are refused before any
        # array exists: parsing holds nothing beyond the document's own lists
        doc = load_reference_doc()
        doc["history"] = {"preset": "table", "s": [0.5] * (MAX_STEPS + 1),
                          "q": [10.0] * (MAX_STEPS + 1), "i0": 1.0}
        message = f"history.s must hold at most {MAX_STEPS} samples, got {MAX_STEPS + 1}"
        errors = []

        def parse():
            try:
                from_dict(doc)
            except ScenarioError as exc:
                errors.append(str(exc))

        assert peak_bytes(parse) < 1e5
        assert errors == [message]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == cli.EXIT_IO
        assert capsys.readouterr().err == f"error:parse: {message}\n"

    @pytest.mark.parametrize("key", ["s", "q"])
    @pytest.mark.parametrize("sample, message", [
        (True, "must be a number, got True"),
        ("x", "must be a number, got 'x'"),
        (float("inf"), "must be a finite number, got inf"),
        (-1.0, "must be >= 0.0, got -1.0"),
    ], ids=["bool", "string", "inf", "negative"])
    def test_table_samples_follow_the_number_rules(self, tmp_path, capsys, key, sample,
                                                   message):
        # each sample of a table is a number of its own, named by its index: json's true
        # is no 1.0, and every command refuses the document at parse, before anything runs
        doc = load_reference_doc()
        doc["history"] = {"preset": "table", "s": [0.5] * 4, "q": [10.0] * 4, "i0": 1.0}
        doc["history"][key][2] = sample
        message = f"history.{key}[2] {message}"
        with pytest.raises(ScenarioError) as library:
            from_dict(doc)
        assert str(library.value) == message
        path = write_doc(tmp_path, doc)
        for argv in _EVERY_COMMAND:
            code = cli.main([argv[0], path, "--outdir", str(tmp_path / "out"), *argv[1:]])
            assert (code, capsys.readouterr().err) == (cli.EXIT_IO, f"error:parse: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params, run, T", [
        ({}, dict(kappa2=1e20), "T = 1.66674e+21"),  # t_hi
        ({}, dict(kappa2=1e308), "T = inf"),  # t_hi, which overflows
        (dict(m=1e-9, d=2e-8), {}, "T = 1e+10"),  # t_det = 10/eta
    ])
    def test_derived_horizon_refused_before_any_path(self, tmp_path, capsys, monkeypatch,
                                                     params, run, T):
        with open(CONCENTRATION_SCENARIO) as fh:
            doc = json.load(fh)
        doc["parameters"].update(params)
        doc["run"].update(run)
        path = write_doc(tmp_path, doc)

        def no_paths(*args):
            raise AssertionError("the horizon is checked before any path is drawn")

        monkeypatch.setattr(phagesim.sde, "_increments", no_paths)
        start = time.perf_counter()
        code = cli.main(["mc-concentration", path, "--outdir", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith(f"error:model: {T}")
        assert f"steps; the limit is {MAX_STEPS} steps\n" in err

    @pytest.mark.parametrize("key, run", [
        ("T", dict(T=float("inf"))),
        ("rho", dict(rho=float("inf"))),
        ("kappa1", dict(kappa1=float("inf"))),
        ("kappa2", dict(kappa2=float("inf"))),
        ("eps_list.e", dict(eps_list=[0.01, float("inf")])),
        ("window[1]", dict(window=[0.0, float("inf")])),
    ])
    def test_non_finite_run_numbers_refused_at_parse(self, tmp_path, capsys, key, run):
        # json reads Infinity; every command refuses it at parse, naming the key, before
        # anything runs: an infinite rho, kappa or eps is no model error (exit 3)
        with open(CONCENTRATION_SCENARIO) as fh:
            doc = json.load(fh)
        doc["run"].update(n=4, **run)
        path = write_doc(tmp_path, doc)
        message = f"run.{key} must be a finite number, got inf"
        with pytest.raises(ScenarioError) as library:
            RunSettings(**doc["run"])
        assert str(library.value) == message
        for argv in _EVERY_COMMAND:
            code = cli.main([argv[0], path, "--outdir", str(tmp_path / "out"), *argv[1:]])
            assert (code, capsys.readouterr().err) == (cli.EXIT_IO, f"error:parse: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", _EVERY_COMMAND)
    def test_each_command_builds_one_history(self, tmp_path, capsys, monkeypatch, argv):
        doc = load_reference_doc()
        doc["run"].update(T=5.0, n=3)
        path = write_doc(tmp_path, doc)
        built = []
        init = phagesim.History.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(phagesim.History, "__init__", counted)
        assert cli.main([argv[0], path, "--outdir", str(tmp_path), *argv[1:]]) == cli.EXIT_OK
        assert len(built) == 1

    @pytest.mark.parametrize("run, argv", [
        ({}, ["simulate-sde", "--paths", str(10**6)]),
        ({}, ["simulate-sde", "--paths", str(10**8)]),
        (dict(n=10**6), ["mc-concentration"]),
        (dict(K=10**9, T=1e-5), ["simulate-sde", "--paths", "1"]),
        # 2000 lockstep eps rows of 2000 paths: 1 107 088 bytes a path
        (dict(n=2000, eps_list=[0.01 + 1e-5 * r for r in range(2000)]), ["mc-concentration"]),
    ])
    def test_path_budget_refuses_before_any_path(self, tmp_path, capsys, monkeypatch, run, argv):
        doc = load_reference_doc()
        doc["run"].update(run)
        path = write_doc(tmp_path, doc)

        def no_paths(*args):
            raise AssertionError("the path budget is checked before any generator, ring or run")

        for name in ("_increments", "_history_influx", "_step_paths", "_float_path"):
            monkeypatch.setattr(phagesim.sde, name, no_paths)
        monkeypatch.setattr(phagesim.dde, "integrate", no_paths)
        codes = []
        start = time.perf_counter()
        peak = peak_bytes(lambda: codes.append(
            cli.main([argv[0], path, "--outdir", str(tmp_path / "out"), *argv[1:]])))
        assert time.perf_counter() - start < 1.0
        assert peak < 10e6
        assert codes == [cli.EXIT_IO]
        err = capsys.readouterr().err
        assert err.startswith("error:resource: out of memory: paths need ")
        assert err.endswith(f"; the path budget is {phagesim.sde.PATH_BYTES_BUDGET} bytes\n")

    @pytest.mark.parametrize("command", ["validate", "min-dose", "compare-coinfection", "simulate"])
    @pytest.mark.parametrize("params, burst, mu_tau", [
        (dict(mu=1.0, tau=800.0), "0", "800"),
        # b e^{-mu tau} mu is a subnormal 9.9e-323, but k1 b e^{-mu tau} M is 0.0
        (dict(mu=1.0, tau=744.0, k1=1e-3, alpha=1e-3), "9.88e-323", "744"),
    ])
    def test_burst_underflow_fails_the_hypotheses(self, tmp_path, capsys, command, params,
                                                  burst, mu_tau):
        # the thresholds and the region's bounds divide by the burst; compare-coinfection's
        # k2 = 0 minimal dose would be 0/0. simulate needs the region, so it integrates and
        # writes nothing.
        doc = load_reference_doc()
        doc["parameters"].update(params)
        doc["run"].update(T=1000.0, K=4096)
        path = write_doc(tmp_path, doc)
        assert cli.main([command, path, "--outdir", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error:hypothesis: b e^(-mu tau) = {burst} at mu tau = {mu_tau} "
            "underflows in the thresholds that divide by it\n"
        )
        assert not (tmp_path / "trajectory.csv").exists()

    def test_path_count_past_a_range_refused_at_parse(self, tmp_path, capsys):
        # len(range(n)) overflows past 2**63 - 1 paths, so run.n and --paths stop there
        message = f"error:parse: run.n must be <= {2**63 - 1}, got {10**20}\n"
        doc = load_reference_doc()
        doc["run"]["n"] = 10**20
        path = write_doc(tmp_path, doc)
        for argv in _EVERY_COMMAND:
            code = cli.main([argv[0], path, "--outdir", str(tmp_path / "out"), *argv[1:]])
            assert (code, capsys.readouterr().err) == (cli.EXIT_IO, message)
        code = cli.main(["simulate-sde", REFERENCE_SCENARIO, "--outdir", str(tmp_path / "out"),
                         "--paths", str(10**20)])
        assert (code, capsys.readouterr().err) == (cli.EXIT_IO, message)
        assert not (tmp_path / "out").exists()

    def test_huge_path_count_exits_on_resources(self, tmp_path):
        # 10**12 paths need 45.5 PiB of increments. The child runs under a
        # 2 GB address-space limit, so even code that tried to materialise
        # the path indices could not exhaust the machine.
        doc = load_reference_doc()
        doc["run"]["n"] = 10**12
        path = write_doc(tmp_path, doc)
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from phagesim import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src_dir = os.path.dirname(os.path.dirname(phagesim.__file__))
        env = {**os.environ, "PYTHONPATH": src_dir}
        proc = subprocess.run(
            [sys.executable, "-c", child, "simulate-sde", path, "--outdir", str(tmp_path)],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert proc.returncode == cli.EXIT_IO
        assert proc.stderr.startswith("error:resource:")
        assert "Traceback" not in proc.stderr
