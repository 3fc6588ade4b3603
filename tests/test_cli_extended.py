"""Tests for the extended CLI (verify backends, coverage)."""

import json
import os
import subprocess
import sys

import pytest

from repro import designs
from repro.__main__ import main
from repro.desync import one_place_fifo
from repro.lang import format_component, format_program
from repro.lang.types import BOOL


@pytest.fixture
def fifo_file(tmp_path):
    comp, ports = one_place_fifo(dtype=BOOL)
    path = tmp_path / "fifo.sig"
    path.write_text(format_component(comp))
    return str(path), ports


@pytest.fixture
def counter_file(tmp_path):
    path = tmp_path / "counter.sig"
    path.write_text(
        "process C = (? event tick; ! integer x; ! event blown;)"
        "(| x := (pre 0 x) + 1 | x ^= tick"
        " | blown := (true when (x > 3)) when tick |) end"
    )
    return str(path)


class TestVerifyBackends:
    def test_explicit_refutes(self, fifo_file, capsys):
        path, ports = fifo_file
        rc = main(["verify", path, "--never", ports.alarm])
        assert rc == 1
        assert "counterexample" in capsys.readouterr().out

    def test_symbolic_refutes_identically(self, fifo_file, capsys):
        path, ports = fifo_file
        rc = main(["verify", path, "--never", ports.alarm, "--backend", "symbolic"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "symbolic" in out and "counterexample" in out

    def test_symbolic_proves(self, fifo_file, capsys):
        path, ports = fifo_file
        # tie the write port off: no writes, no alarm, provable
        rc = main(
            ["verify", path, "--never", ports.alarm,
             "--backend", "symbolic", "--never-input", "msgin"]
        )
        assert rc == 0
        assert "PROVEN" in capsys.readouterr().out

    def test_bounded_backend_on_infinite_state(self, counter_file, capsys):
        # unbounded counter: explicit compilation would diverge, the
        # bounded backend refutes within the depth
        rc = main(
            ["verify", counter_file, "--never", "blown",
             "--backend", "bounded", "--depth", "6"]
        )
        assert rc == 1
        assert "bounded search" in capsys.readouterr().out

    def test_bounded_safe_within_depth(self, counter_file, capsys):
        rc = main(
            ["verify", counter_file, "--never", "blown",
             "--backend", "bounded", "--depth", "3"]
        )
        assert rc == 0
        assert "SAFE up to depth 3" in capsys.readouterr().out


class TestCoverageCommand:
    def test_coverage_report(self, fifo_file, capsys):
        path, ports = fifo_file
        rc = main(
            ["coverage", path, "--stim", "msgin:2:0:true",
             "--stim", "rreq:2:1", "-n", "20",
             "--group", "msgin,rreq"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "coverage over 20 instants" in out
        assert "presence patterns" in out


class TestArgumentErrors:
    """Malformed arguments end in one usage line naming the flag and the
    value, not a traceback."""

    @pytest.mark.parametrize("command", ["simulate", "estimate", "coverage"])
    def test_non_integer_period(self, fifo_file, command):
        path, _ = fifo_file
        with pytest.raises(SystemExit) as exc:
            main([command, path, "--stim", "msgin:x"])
        assert str(exc.value.code).startswith(command + ": --stim")
        assert "'msgin:x'" in str(exc.value.code)

    @pytest.mark.parametrize("command", ["simulate", "estimate", "coverage"])
    def test_unknown_value_word(self, fifo_file, command):
        path, _ = fifo_file
        with pytest.raises(SystemExit) as exc:
            main([command, path, "--stim", "msgin:1:0:maybe"])
        assert "--stim" in str(exc.value.code)
        assert "'msgin:1:0:maybe'" in str(exc.value.code)

    @pytest.mark.parametrize("command", ["verify", "prove"])
    def test_non_integer_domain(self, command):
        argv = [command, "producer_consumer", "--int-values", "0,x"]
        if command == "verify":
            argv += ["--never", "x_alarm"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith(command + ": bad --int-values")
        assert "'0,x'" in str(exc.value.code)

    @pytest.mark.parametrize("flag", ["--crash", "--stall"])
    @pytest.mark.parametrize("spec", ["Q:8", "Q:a:b"])
    def test_malformed_window(self, flag, spec):
        """A wrong part count and a non-number read alike: one line
        naming the command, the flag and the value (exit 1)."""
        with pytest.raises(SystemExit) as exc:
            main(["recover", "soak", flag, spec])
        assert exc.value.code == (
            "recover: {} expects NODE:START:END, got {!r}".format(flag, spec)
        )

    def test_unknown_design_names_the_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["prove", "no_such_design"])
        assert str(exc.value.code).startswith("prove: unknown design")

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "FILE", "--stim", "p_act:1", "--stim", "x_rreq:1",
          "-n", "0"], "horizon must be >= 1"),
        (["estimate", "FILE", "--stim", "p_act:1", "--stim", "x_rreq:1",
          "--initial", "0"], "capacity must be >= 1"),
        (["desync", "FILE", "--capacity", "0"], "capacity must be >= 1"),
        (["prove", "producer_consumer", "--capacity", "0"],
         "capacity must be >= 1"),
        (["faults", "soak", "--drop", "2"],
         "drop for '*' must be a probability in [0, 1]"),
        (["recover", "soak", "--drop", "-1"],
         "drop for '*' must be a probability in [0, 1]"),
    ])
    def test_rejected_value_exits_2(self, tmp_path, capsys, argv, message):
        """A value the library rejects is an input error (exit 2, one
        line), never a verdict's exit 1 with a traceback."""
        path = tmp_path / "pc.sig"
        path.write_text(format_program(designs.producer_consumer()))
        argv = [str(path) if arg == "FILE" else arg for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert err.count("\n") == 1


class TestVerifyTargets:
    def test_corpus_target(self, capsys):
        rc = main(["verify", "toggle_producer", "--never", "x",
                   "--backend", "bounded", "--depth", "2"])
        assert rc == 1
        assert "bounded search to depth 2" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["missing.sig", "sub/missing"])
    def test_missing_file_is_reported(self, tmp_path, monkeypatch, capsys,
                                      target):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", target, "--never", "x"]) == 2
        assert "No such file" in capsys.readouterr().err


class TestCommandImports:
    """The ``--stim`` grammar lives beside the stimuli, so the simulation
    commands run without loading the service package."""

    CODE = (
        "import json, sys\n"
        "from repro.__main__ import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules\n"
        "                             if m.startswith('repro.')\n"
        "                             and m.split('.')[1] in ('service', 'mc'))]))\n"
    )

    def _loaded(self, tmp_path, *argv):
        import repro

        path = tmp_path / "pc.sig"
        path.write_text(format_program(designs.producer_consumer()))
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", self.CODE, argv[0], str(path), *argv[1:]],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        rc, modules = json.loads(out.strip().splitlines()[-1])
        assert rc == 0
        return modules

    def test_simulate_loads_no_service_and_no_checker(self, tmp_path):
        assert self._loaded(
            tmp_path, "simulate", "--stim", "p_act:1", "-n", "5",
        ) == []

    def test_estimate_loads_no_service(self, tmp_path):
        modules = self._loaded(
            tmp_path, "estimate", "--stim", "p_act:1", "--stim", "x_rreq:1",
            "-n", "10",
        )
        assert not [m for m in modules if m.startswith("repro.service")]
