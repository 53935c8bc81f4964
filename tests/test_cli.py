"""CLI front end: subcommands, config validation, CSV contract, process start-up."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from bccsim import (
    PRESET_NAMES,
    TECHNIQUES,
    BurrXII,
    ConfigError,
    ParameterError,
    Scenario,
    Weibull,
    loads_scenario,
    preset,
    registry_entry,
    scenario_to_config,
)
from bccsim import cli, montecarlo
from bccsim.cli import CSV_HEADER, format_csv, main, parse_csv
from bccsim.config import _parse_sweep
from bccsim.montecarlo import MAX_N_T, MAX_POINTS, make_ber_point

# integers up to 2**1100 overflow a float; keys of mixed types do not sort
_NUMBERS = st.one_of(st.floats(), st.integers(), st.integers(-2 ** 1100, 2 ** 1100))
_YAML_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, st.text("abf19-_ ", max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.one_of(st.text("abf19", max_size=4), st.integers()),
                                            inner, max_size=3)),
    max_leaves=8)
_EXTRA_KEYS = st.dictionaries(st.one_of(st.text("xyz", min_size=1, max_size=2), st.integers()),
                              _YAML_VALUES, max_size=2)
_INLINE_NODE = st.builds(
    lambda fields, extra: {**extra, **fields},
    st.fixed_dictionaries(
        {"family": st.sampled_from(["burr", "weibull", "rayleigh"]),
         "params": st.lists(_NUMBERS, max_size=4),
         "condition": st.sampled_from(["strong", "weak", "fair"])},
        optional={"node_id": st.one_of(st.integers(), _YAML_VALUES)}),
    st.one_of(st.just({}), _EXTRA_KEYS))
_REGISTRY_NAMES = [f"f{i}" for i in range(1, 10)]
_KEY_VALUES = {
    "nodes": st.lists(st.one_of(st.sampled_from([f"f{i}" for i in range(11)]), _INLINE_NODE),
                      max_size=4),
    "n_t": st.one_of(st.integers(), st.lists(st.integers(), max_size=4)),
    "n_data_symbols": st.integers(),
    "seed": st.integers(),
    "blocks": st.integers(),
    "techniques": st.lists(st.sampled_from(TECHNIQUES + ("guessing",)), max_size=5),
    "n0_dbm_per_hz": _NUMBERS,
    "bandwidth_hz": _NUMBERS,
}
# Values every key accepts: documents built from these alone must load.
_EVEN_N_T = st.integers(2, MAX_N_T // 2).map(lambda v: 2 * v)
_VALID_VALUES = {
    "nodes": st.lists(st.sampled_from(_REGISTRY_NAMES), min_size=1, max_size=4, unique=True),
    "n_t": st.one_of(_EVEN_N_T,
                     st.lists(_EVEN_N_T, min_size=1, max_size=4, unique=True).map(sorted)),
    "power_sweep_dbm": st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=5,
                                unique=True).map(sorted),
    "n_data_symbols": st.integers(1, 10 ** 12),
    "seed": st.integers(0, 2 ** 64 - 1),
    "blocks": st.integers(1, 10 ** 6),
    "techniques": st.lists(st.sampled_from(TECHNIQUES), min_size=1, max_size=4, unique=True),
    "n0_dbm_per_hz": st.floats(-200.0, 30.0),
    "bandwidth_hz": st.floats(1.0, 1.0e9),
}
_VALID_DOCS = st.fixed_dictionaries({"nodes": _VALID_VALUES["nodes"]}, optional={
    key: values for key, values in _VALID_VALUES.items() if key != "nodes"})
# Arbitrary documents: each key mixes valid values, the per-key values above
# and arbitrary YAML.
_DOCS = st.fixed_dictionaries({}, optional={
    key: st.one_of(_VALID_VALUES[key], values, _YAML_VALUES)
    for key, values in _KEY_VALUES.items()})


class TestCsvContract:
    def test_round_trip(self):
        points = [
            make_ber_point("deviation", 10.0, 50, 37, 10_000),
            make_ber_point("probability", -20.0, 50, 4999, 10_000),
            make_ber_point("mrc", float("-inf"), 50, 0, 10_000),
        ]
        text = format_csv(points)
        assert text.splitlines()[0] == CSV_HEADER
        assert sorted(parse_csv(text), key=lambda p: p.technique) == sorted(
            points, key=lambda p: p.technique)

    def test_rows_sorted(self):
        points = [
            make_ber_point("probability", 10.0, 50, 1, 100),
            make_ber_point("deviation", 10.0, 50, 1, 100),
            make_ber_point("deviation", -10.0, 50, 1, 100),
        ]
        lines = format_csv(points).splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["deviation", "deviation", "probability"]
        assert float(lines[0].split(",")[1]) == -10.0

    def test_header_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            parse_csv("nope\n1,2,3\n")


class TestRunCommand:
    def test_preset_run_is_byte_identical(self, tmp_path):
        args = ["run", "--preset", "fig4", "--seed", "7", "--symbols", "600"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        args = ["run", "--preset", "fig5-strong", "--seed", "3", "--symbols", "400"]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(args + ["--jobs", "3", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_stdout_output(self, capsys):
        assert main(["run", "--preset", "fig4", "--seed", "1", "--symbols", "200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 26 * 4  # sweep points x techniques

    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(
            "nodes: [f9]\n"
            "power_sweep_dbm: [0, 10]\n"
            "techniques: [deviation]\n"
            "n_data_symbols: 500\n"
            "seed: 9\n")
        assert main(["run", "--config", str(cfg)]) == 0

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["run"]) == 2
        assert "config" in capsys.readouterr().err
        cfg = tmp_path / "s.yaml"
        cfg.write_text("nodes: [f1]\n")
        assert main(["run", "--config", str(cfg), "--preset", "fig4"]) == 2

    def test_odd_nt_names_offending_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("nodes: [f1]\nn_t: 7\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "n_t" in capsys.readouterr().err

    def test_zero_jobs_names_key(self, capsys):
        assert main(["run", "--preset", "fig4", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert "jobs" in err and "Traceback" not in err

    @pytest.mark.parametrize("symbols", ["922337203685477580700", str(10 ** 30),
                                         str(2 ** 63)])
    def test_budget_numpy_cannot_address_names_keys(self, symbols, capsys):
        # past a point's int64 error count: rejected with the scenario, before
        # anything is allocated
        assert main(["run", "--preset", "fig4", "--symbols", symbols]) == 2
        err = capsys.readouterr().err
        assert "n_data_symbols" in err and "blocks" in err and "Traceback" not in err

    def test_out_of_memory_names_the_keys_that_size_a_block(self, monkeypatch, capsys):
        # the run's MemoryError is stood in for, so nothing is allocated.  A block
        # holds one data chunk whatever the budget, so the message names the keys
        # that size its arrays: the nodes, the longest training length, the powers
        def out_of_memory(scenario, jobs=1):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, "run_scenario", out_of_memory)
        assert main(["run", "--preset", "fig7", "--symbols", str(10 ** 14)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: nodes, n_t, power_sweep_dbm: ")
        assert "len(nodes) = 6, max(n_t) = 1000 and len(power_sweep_dbm) = 1" in err
        assert "n_data_symbols" not in err and "Traceback" not in err

    def test_a_workers_out_of_memory_names_the_keys(self, monkeypatch, capsys):
        # a forked worker's MemoryError comes back with its type, so --jobs 2 exits 2
        # as a serial run does; the stand-in runs in the real children
        def out_of_memory(scenario, first, stop):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(montecarlo, "_run_blocks", out_of_memory)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        assert main(["run", "--preset", "fig7", "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: nodes, n_t, power_sweep_dbm: ")
        assert "len(nodes) = 6, max(n_t) = 1000 and len(power_sweep_dbm) = 1" in err
        assert "Traceback" not in err
        with pytest.raises(ChildProcessError):  # both workers were reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_killed_worker_is_one_runtime_error_line(self, monkeypatch, capsys):
        # a worker that dies before sending its counts exits 1 with one line
        # naming how it ended, not a traceback; the stand-in runs in the children
        def killed(scenario, first, stop):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(montecarlo, "_run_blocks", killed)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        assert main(["run", "--preset", "fig4", "--symbols", "200", "--jobs", "2"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("runtime error: worker process ")
        assert line.endswith("ended without sending its counts (killed by signal 9)")
        assert "Traceback" not in captured.err and captured.out == ""
        with pytest.raises(ChildProcessError):  # both workers were reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_killed_while_it_sends_its_counts_is_one_runtime_error_line(
            self, killed_while_sending, monkeypatch, capsys):
        # each worker writes half its counts and is killed; the cut payload is
        # not unpickled, so the run exits 1 with one line, not a traceback
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        assert main(["run", "--preset", "fig4", "--symbols", "400", "--jobs", "2"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("runtime error: worker process ")
        assert line.endswith("ended without sending its counts (killed by signal 9)")
        assert "Traceback" not in captured.err and captured.out == ""
        with pytest.raises(ChildProcessError):  # both workers were reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_that_cannot_start_is_one_runtime_error_line(self, second_fork_fails,
                                                                   monkeypatch, capsys):
        # a fork that fails as under a process limit exits 1 with one line, not
        # a traceback, and the worker started before it is reaped
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        assert main(["run", "--preset", "fig4", "--symbols", "200", "--jobs", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"runtime error: {second_fork_fails}"]
        assert "Traceback" not in captured.err and captured.out == ""
        with pytest.raises(ChildProcessError):  # the first worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_overflowing_power_names_key(self, tmp_path, capsys):
        # a bad late power fails at load, not inside a block
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("nodes: [f1]\npower_sweep_dbm: [0, 4000]\n")
        assert main(["run", "--config", str(cfg), "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert "power_sweep_dbm" in err and "Traceback" not in err

    @pytest.mark.parametrize("noise", [
        "n0_dbm_per_hz: 300\nbandwidth_hz: 1.0e+300\n",
        "bandwidth_hz: .inf\n",
        "n0_dbm_per_hz: .nan\n",
    ])
    def test_non_finite_noise_names_key(self, noise, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("nodes: [f1]\n" + noise)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert noise.split(":")[0] in err and "Traceback" not in err

    @pytest.mark.parametrize("n_t", [10 ** 30, MAX_N_T + 2])
    def test_n_t_above_the_cap_names_key(self, n_t, tmp_path, capsys):
        cfg = tmp_path / "long.yaml"
        cfg.write_text(f"nodes: [f1]\npower_sweep_dbm: [10]\nn_data_symbols: 10\nn_t: [{n_t}]\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "n_t" in err and str(MAX_N_T) in err and "Traceback" not in err

    def test_n_t_at_the_cap_runs(self, tmp_path, capsys):
        cfg = tmp_path / "long.yaml"
        cfg.write_text(f"nodes: [f1]\npower_sweep_dbm: [10]\nn_data_symbols: 2\n"
                       f"techniques: [deviation]\nn_t: [{MAX_N_T}]\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert f"deviation,10.0,{MAX_N_T},2," in capsys.readouterr().out

    def test_sweep_above_the_cap_names_key(self, tmp_path, capsys):
        # -1000 .. 1500 dBm in quarter steps is MAX_POINTS + 1 powers
        cfg = tmp_path / "wide.yaml"
        cfg.write_text("nodes: [f1]\npower_sweep_dbm: {start: -1000, stop: 1500, step: 0.25}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "power_sweep_dbm" in err and str(MAX_POINTS) in err and "Traceback" not in err

    def test_grid_above_the_cap_names_both_keys(self, tmp_path, capsys):
        # 8,001 powers x 3,000 training lengths: rejected at load, before a
        # 2.4 x 10^7-point grid is built, and not blamed on the symbol budget
        n_t = ", ".join(str(v) for v in range(4, 6004, 2))
        cfg = tmp_path / "grid.yaml"
        cfg.write_text(f"nodes: [f1]\nn_t: [{n_t}]\nn_data_symbols: 10\nblocks: 1\n"
                       "power_sweep_dbm: {start: -100, stop: 100, step: 0.025}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "power_sweep_dbm" in err and "n_t" in err and str(MAX_POINTS) in err
        assert "n_data_symbols" not in err and "Traceback" not in err

    def test_nt_sweep_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "old.yaml"
        cfg.write_text("nodes: [f1]\npower_sweep_dbm: [10]\nnt_sweep: [10, 20]\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "nt_sweep" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("nodes: [f1]\nbogus_knob: 3\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "run --config {d}/missing.yaml",
        "run --config {d}",
        "run --config {d}/not-utf8.yaml",
        "run --preset fig4 --out {d}/missing/fig4.csv",
        "preset fig4 --out {d}/missing/fig4.yaml",
    ])
    def test_unusable_file_names_flag_and_path(self, argv, tmp_path, capsys, monkeypatch):
        (tmp_path / "not-utf8.yaml").write_bytes(b"nodes: [f1]\nseed: \xff\n")
        # a bad --out fails before the sweep starts
        monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: pytest.fail("ran"))
        argv = [token.format(d=tmp_path) for token in argv.split()]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{argv[-2]} {argv[-1]}:" in err and "Traceback" not in err

    def test_unknown_preset(self, capsys):
        assert main(["run", "--preset", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_fig3_writes_one_csv_per_channel(self, tmp_path):
        for i in range(1, 10):
            assert main(["run", "--preset", f"fig3-f{i}", "--seed", "2", "--symbols", "200",
                         "--out", str(tmp_path / f"fig3_f{i}.csv")]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [f"fig3_f{i}.csv" for i in range(1, 10)]
        for path in tmp_path.iterdir():
            points = parse_csv(path.read_text())
            assert len(points) == 26 and {p.technique for p in points} == {"probability"}

    def test_fig3_list_preset_is_gone(self, capsys):
        assert main(["run", "--preset", "fig3"]) == 2
        assert main(["preset", "fig3"]) == 2
        err = capsys.readouterr().err
        assert "'fig3'" in err and "fig3-f1" in err

    def test_zero_noise_combination_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "degenerate.yaml"
        cfg.write_text(
            "nodes: [f2]\n"
            "power_sweep_dbm: [10]\n"
            "bandwidth_hz: 0\n"
            "techniques: [combination]\n"
            "n_data_symbols: 200\n")
        with pytest.warns(RuntimeWarning):
            assert main(["run", "--config", str(cfg)]) == 1


class TestPresetCommand:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_yaml_round_trip(self, name, tmp_path):
        out = tmp_path / "scenario.yaml"
        assert main(["preset", name, "--out", str(out)]) == 0
        assert loads_scenario(out.read_text()) == preset(name)

    def test_fig5_strong_nodes(self):
        scn = preset("fig5-strong")
        assert tuple(f"f{n.node_id}" for n in scn.nodes) == ("f2", "f4", "f9")

    def test_fig6_uses_all_nine(self):
        assert len(preset("fig6").nodes) == 9

    def test_fig7_protocol(self):
        scn = preset("fig7")
        assert scn.power_sweep_dbm == (10.0,)
        assert scn.n_t == (10, 20, 50, 100, 200, 500, 1000)
        assert len(scn.nodes) == 6

    def test_fig3_is_nine_single_node_scenarios(self):
        assert PRESET_NAMES[:9] == tuple(f"fig3-f{i}" for i in range(1, 10))
        scenarios = [preset(name) for name in PRESET_NAMES[:9]]
        assert [s.nodes[0].node_id for s in scenarios] == list(range(1, 10))
        assert all(s.techniques == ("probability",) for s in scenarios)


class TestRegistryCommand:
    def test_lists_nine_rows(self, capsys):
        assert main(["registry"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,family,parameters,condition"
        assert len(lines) == 10
        assert lines[1] == "f1,burr,4.71e-07;2.43;5.61,weak"
        assert lines[5] == "f5,weibull,1.76e-06;3.88,weak"
        assert lines[9].endswith("strong")


# A fresh interpreter's view after ``import bccsim`` and, given arguments, a ``cli.main`` call
# on them and the DeprecationWarnings it raised (os.fork's of a threaded process from Python
# 3.12 on): the OpenBLAS variable, the process's threads (None off Linux) and which of the
# YAML parser and the process pools it loaded.
_STARTUP_PROBE = """
import json, os, sys, warnings
import bccsim
seen = {"env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None}
if sys.argv[1:]:
    from bccsim import cli
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always", DeprecationWarning)
        seen["status"] = cli.main(sys.argv[1:])
    seen["deprecations"] = [str(w.message) for w in warned if w.category is DeprecationWarning]
seen["loaded"] = [name for name in ("yaml", "concurrent.futures", "multiprocessing")
                  if name in sys.modules]
print(json.dumps(seen))
"""


def fresh_process(*args, **env):
    """What _STARTUP_PROBE sees in a new interpreter, with no OPENBLAS_NUM_THREADS unless given.

    pytest and hypothesis load numpy before bccsim, so only a fresh interpreter shows
    what importing bccsim first does."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, *args], env={**environ, **env},
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


class TestStartup:
    def test_import_loads_numpy_with_one_openblas_thread_and_leaves_no_variable(self):
        seen = fresh_process()
        assert seen["env"] is None and seen["loaded"] == []
        if seen["threads"] is not None:
            assert seen["threads"] == 1

    def test_a_thread_count_the_caller_set_stays(self):
        assert fresh_process(OPENBLAS_NUM_THREADS="3")["env"] == "3"

    def test_a_serial_preset_run_loads_neither_yaml_nor_the_process_pool(self, tmp_path):
        seen = fresh_process("run", "--preset", "fig4", "--symbols", "200", "--jobs", "1",
                             "--out", str(tmp_path / "out.csv"))
        assert seen["status"] == 0 and seen["loaded"] == []

    def test_a_config_run_loads_yaml(self, tmp_path):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text("nodes: [f1]\npower_sweep_dbm: [0]\nn_data_symbols: 200\n")
        seen = fresh_process("run", "--config", str(cfg), "--out", str(tmp_path / "out.csv"))
        assert seen["status"] == 0 and seen["loaded"] == ["yaml"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 runs serially on one CPU")
    def test_a_two_job_run_loads_neither_concurrent_futures_nor_multiprocessing(self, tmp_path):
        # the workers are forked from a process of one thread, so os.fork does not warn
        seen = fresh_process("run", "--preset", "fig4", "--symbols", "200", "--jobs", "2",
                             "--out", str(tmp_path / "out.csv"))
        assert seen["status"] == 0 and seen["loaded"] == [] and seen["deprecations"] == []


class TestConfigParsing:
    def test_sweep_mapping_expands(self):
        scn = loads_scenario(
            "nodes: [f1]\npower_sweep_dbm: {start: -20, stop: 30, step: 10}\n")
        assert scn.power_sweep_dbm == (-20.0, -10.0, 0.0, 10.0, 20.0, 30.0)

    def test_sweep_mapping_is_counted_against_the_cap(self):
        sweep = "{start: -1000, stop: %s, step: 0.25}"
        scn = loads_scenario(f"nodes: [f1]\npower_sweep_dbm: {sweep % 1499.75}\n")
        assert len(scn.power_sweep_dbm) == MAX_POINTS
        assert scn.power_sweep_dbm[-1] == 1499.75
        # the mapping is counted before it is expanded, not left to Scenario
        with pytest.raises(ConfigError, match=f"power_sweep_dbm: at most {MAX_POINTS} powers, "
                                              f"got {MAX_POINTS + 1}"):
            _parse_sweep({"start": -1000, "stop": 1500, "step": 0.25})

    def test_power_list_is_capped(self):
        powers = [-1000 + 0.25 * i for i in range(MAX_POINTS + 1)]
        assert len(Scenario(nodes=(registry_entry("f1"),),
                            power_sweep_dbm=powers[:-1]).power_sweep_dbm) == MAX_POINTS
        with pytest.raises(ParameterError, match="power_sweep_dbm"):
            Scenario(nodes=(registry_entry("f1"),), power_sweep_dbm=powers)

    def test_inline_nodes(self):
        scn = loads_scenario(
            "nodes:\n"
            "  - {family: burr, params: [4.71e-7, 2.43, 5.61], condition: weak}\n"
            "  - {family: weibull, params: [1.76e-6, 3.88], condition: weak, node_id: 12}\n")
        assert scn.nodes[0].dist == BurrXII(4.71e-7, 2.43, 5.61)
        assert scn.nodes[1].dist == Weibull(1.76e-6, 3.88)
        assert scn.nodes[1].node_id == 12

    def test_inline_node_errors(self):
        with pytest.raises(ConfigError, match="family"):
            loads_scenario("nodes:\n  - {family: rayleigh, params: [1.0]}\n")
        with pytest.raises(ConfigError, match="condition"):
            loads_scenario("nodes:\n  - {family: weibull, params: [1.0, 2.0]}\n")
        with pytest.raises(ConfigError, match="params"):
            loads_scenario("nodes:\n  - {family: burr, params: [1.0], condition: weak}\n")
        with pytest.raises(ConfigError, match="node_id"):
            loads_scenario("nodes:\n  - {family: weibull, params: [1.0, 2.0], condition: weak,"
                           " node_id: true}\n")
        with pytest.raises(ConfigError, match="params"):
            loads_scenario("nodes:\n  - {family: weibull, params: [1" + "0" * 400 + ", 2.0],"
                           " condition: weak}\n")

    def test_unknown_registry_name(self):
        with pytest.raises(ConfigError, match="f12"):
            loads_scenario("nodes: [f12]\n")

    def test_scenario_round_trip_through_mapping(self):
        scn = Scenario(nodes=(registry_entry("f3"), registry_entry("f7")),
                       power_sweep_dbm=(0.0, 4.0), techniques=("combination",),
                       n_data_symbols=1234, seed=77, blocks=13)
        import yaml

        assert loads_scenario(yaml.safe_dump(scenario_to_config(scn))) == scn

    def test_n_t_takes_an_int_or_a_list(self):
        assert loads_scenario("nodes: [f1]\nn_t: 20\n").n_t == (20,)
        assert loads_scenario("nodes: [f1]\nn_t: [10, 20]\n").n_t == (10, 20)
        assert scenario_to_config(loads_scenario("nodes: [f1]\nn_t: 20\n"))["n_t"] == [20]
        for bad in ("[]", "[20, 10]", "[10, 15]", "[10, 2.5]", "{a: 1}"):
            with pytest.raises(ConfigError, match="n_t"):
                loads_scenario(f"nodes: [f1]\nn_t: {bad}\n")

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            loads_scenario("- just\n- a\n- list\n")

    def test_unrepresentable_sweeps_rejected(self):
        for sweep in ("{start: 0, stop: .inf, step: 1}", "{start: .nan, stop: 1, step: 1}",
                      "[1" + "0" * 400 + "]", "[0, 4000]"):
            with pytest.raises(ConfigError, match="power_sweep_dbm"):
                loads_scenario(f"nodes: [f1]\npower_sweep_dbm: {sweep}\n")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.integers()), max_size=6))
    def test_any_power_list_loads_or_is_rejected(self, powers):
        text = yaml.safe_dump({"nodes": ["f9"], "power_sweep_dbm": powers})
        try:
            scn = loads_scenario(text)
        except (ConfigError, ParameterError):
            return
        assert isinstance(scn, Scenario)
        assert len(scn.power_sweep_dbm) == len(powers)

    @settings(max_examples=200, deadline=None)
    @given(_VALID_DOCS)
    def test_valid_documents_load_and_round_trip(self, doc):
        # the same values, registry names resolved, go straight to Scenario too
        scn = loads_scenario(yaml.safe_dump(doc))
        assert isinstance(scn, Scenario)
        assert Scenario(**{**doc, "nodes": [registry_entry(n) for n in doc["nodes"]]}) == scn
        assert loads_scenario(yaml.safe_dump(scenario_to_config(scn))) == scn

    @settings(max_examples=300, deadline=None)
    @given(_DOCS, st.one_of(st.just({}), _EXTRA_KEYS))
    def test_any_key_values_load_or_are_rejected(self, doc, extra):
        # the same values, registry names resolved, go straight to Scenario too
        scenarios = []
        try:
            scenarios.append(loads_scenario(yaml.safe_dump({**extra, **doc})))
        except ConfigError:
            pass
        if "nodes" in doc:
            nodes = doc["nodes"]
            if isinstance(nodes, list):
                nodes = [registry_entry(n) if n in _REGISTRY_NAMES else n for n in nodes]
            try:
                scenarios.append(Scenario(**{**doc, "nodes": nodes}))
            except ParameterError:
                pass
        for scn in scenarios:
            assert isinstance(scn, Scenario)
            assert loads_scenario(yaml.safe_dump(scenario_to_config(scn))) == scn
