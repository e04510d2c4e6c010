import hashlib
import json
import subprocess
import sys

import pytest

RUN = [sys.executable, "-m", "sethopf.cli"]


def run_cli(*args, timeout=600):
    proc = subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=timeout
    )
    return proc


# sha256 of the stdout of `cells enumerate --n N --witnesses`. It does not
# depend on PYTHONHASHSEED: the LP pivot sequence fixes every witness.
WITNESS_DIGESTS = {
    2: "ba29a380695f5562a8178aed0aa18773eadf9d0b9ebf5e9853c20827fbea7951",
    3: "2f3a3be8d3729d08be3f9820f91af1bb04188dcaa4ba5d389c10075691b7fce5",
    4: "8488cbc0e2769e00117eb91ac370924f0487cc0f6612e1a5000681f8b5428bb7",
    5: "a40786ac51988e80adce4acf77bc69438dbe42a3e801db70686fecf25532a104",
    6: "f9ac378ee567faa70476faf38d3e6cb8c41eaf19e13255d516ce54b57080cfac",
}

# sha256 of the stdout of `cells enumerate --n N`, without witnesses: the
# orbit walk's cells, which must be the insertion enumeration's.
ENUMERATE_DIGESTS = {
    4: "de4fb9107f926903d93cad5cc4c18f2f926d822d48ef86c3c3633bfe8deb54af",
    5: "136e532137b6c40801cf441527f5efe761bc8f9de1feaeef0234308d32104aee",
    6: "e6b9ee8f709c3842cab5300432e092869985164ffc18744a2c99790ef4d08d8a",
}

# The stdout of `ruelle verify --n 4` and `glz verify --n 4`.
LIE_REPORTS_N4 = {
    "ruelle": '{"command":"ruelle verify","parameters":{"n":4},"status":"pass",'
    '"counters":{"checked":62,"failures":0,"ruelle":62},"payload":{}}',
    "glz": '{"command":"glz verify","parameters":{"n":4},"status":"pass",'
    '"counters":{"checked":20,"failures":0,"glz":20},"payload":{}}',
}

# The stdout of `ruelle verify --n N`, keyed by N.
RUELLE_STDOUT = {
    5: '{"command":"ruelle verify","parameters":{"n":5},"status":"pass",'
    '"counters":{"checked":382,"failures":0,"ruelle":382},"payload":{}}',
    6: '{"command":"ruelle verify","parameters":{"n":6},"status":"pass",'
    '"counters":{"checked":4822,"failures":0,"ruelle":4822},"payload":{}}',
}

# The stdout of `dynkin rank --n N`, keyed by N.
DYNKIN_RANK_STDOUT = {
    1: '{"cells":1,"rank":1,"zieDim":1,"status":"pass"}\n',
    2: '{"cells":2,"rank":2,"zieDim":2,"status":"pass"}\n',
    3: '{"cells":6,"rank":6,"zieDim":6,"status":"pass"}\n',
    4: '{"cells":32,"rank":26,"zieDim":26,"status":"pass"}\n',
    5: '{"cells":370,"rank":150,"zieDim":150,"status":"pass"}\n',
}

# Each command one past the bound of its --n or --order.
OVER_BOUND = [
    ("hopf", "check", "--n", "6"),
    ("cells", "count", "--n", "7"),
    ("cells", "enumerate", "--n", "7"),
    ("dynkin", "rank", "--n", "6"),
    ("steinmann", "verify", "--n", "6"),
    ("ruelle", "verify", "--n", "7"),
    ("glz", "verify", "--n", "7"),
    ("arrows", "verify", "--n", "6"),
    ("series", "identities", "--order", "7"),
    ("toy", "demo", "--order", "9"),
    ("toy", "bogoliubov", "--order", "9"),
]

TOY_MODEL = {
    "observables": [{"id": "a", "time": "1"}, {"id": "s", "time": "0"}],
    "interaction": "s",
}


class TestDataCommands:
    def test_cells_count_spec_example(self):
        proc = run_cli("cells", "count", "--n", "4")
        assert proc.returncode == 0
        assert proc.stdout.strip() == '{"n":4,"count":32}'

    def test_dynkin_rank_spec_example(self):
        proc = run_cli("dynkin", "rank", "--n", "4")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {
            "cells": 32,
            "rank": 26,
            "zieDim": 26,
            "status": "pass",
        }

    @pytest.mark.parametrize("n", sorted(DYNKIN_RANK_STDOUT))
    def test_dynkin_rank_output_pinned(self, n):
        proc = run_cli("dynkin", "rank", "--n", str(n))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, DYNKIN_RANK_STDOUT[n], "")

    @pytest.mark.parametrize(
        "n",
        [pytest.param(n, marks=pytest.mark.heavy) if n >= 6 else n for n in sorted(WITNESS_DIGESTS)],
    )
    def test_witness_output_pinned(self, n):
        proc = run_cli("cells", "enumerate", "--n", str(n), "--witnesses")
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == WITNESS_DIGESTS[n]

    @pytest.mark.parametrize(
        "n",
        [pytest.param(n, marks=pytest.mark.heavy) if n >= 6 else n for n in sorted(ENUMERATE_DIGESTS)],
    )
    def test_witness_free_output_pinned(self, n):
        proc = run_cli("cells", "enumerate", "--n", str(n))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == ENUMERATE_DIGESTS[n]

    def test_witness_free_enumeration_runs_no_insertion(self, monkeypatch, capsys):
        from sethopf import cli

        def no_insertion(ground):
            raise AssertionError("cells enumerate without --witnesses ran the insertion enumeration")

        monkeypatch.setattr(cli, "enumerate_cells_with_witnesses", no_insertion)
        assert cli.run(["cells", "enumerate", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[4]

    def test_cells_enumerate_with_witnesses(self):
        proc = run_cli("cells", "enumerate", "--n", "3", "--witnesses")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["count"] == 6
        for cell in data["cells"]:
            w = {int(k): v for k, v in cell["witness"].items()}
            assert len(cell["positive"]) == 3

    def test_byte_stable(self):
        out1 = run_cli("cells", "enumerate", "--n", "3").stdout
        out2 = run_cli("cells", "enumerate", "--n", "3").stdout
        assert out1 == out2

    def test_package_runs_as_the_cli(self):
        args = ["dynkin", "rank", "--n", "4"]
        via_package = subprocess.run(
            [sys.executable, "-m", "sethopf", *args], capture_output=True, timeout=600
        )
        via_cli = subprocess.run(RUN + args, capture_output=True, timeout=600)
        assert via_package.returncode == via_cli.returncode == 0
        assert via_package.stdout == via_cli.stdout == DYNKIN_RANK_STDOUT[4].encode()


class TestVerifyCommands:
    def test_hopf_check(self):
        proc = run_cli("hopf", "check", "--n", "2")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["status"] == "pass"
        assert report["counters"]["failures"] == 0
        assert report["counters"]["checked"] > 0

    def test_steinmann_verify(self):
        proc = run_cli("steinmann", "verify", "--n", "4")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["status"] == "pass"
        assert report["payload"]["quadruples"] == 6

    def test_glz_verify(self):
        proc = run_cli("glz", "verify", "--n", "3")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["status"] == "pass"
        assert report["counters"]["glz"] > 0

    def test_series_identities(self):
        proc = run_cli("series", "identities", "--order", "3")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "pass"

    def test_arrows_verify(self):
        proc = run_cli("arrows", "verify", "--n", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "pass"

    @pytest.mark.parametrize("n", [5, pytest.param(6, marks=pytest.mark.heavy)])
    def test_ruelle_report_pinned(self, n):
        proc = run_cli("ruelle", "verify", "--n", str(n))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, RUELLE_STDOUT[n] + "\n", "")

    @pytest.mark.parametrize("command", sorted(LIE_REPORTS_N4))
    def test_lie_report_pinned(self, command):
        # ruelle and glz run their own suite, not the whole Lie suite
        proc = run_cli(command, "verify", "--n", "4")
        assert proc.returncode == 0
        assert proc.stdout == LIE_REPORTS_N4[command] + "\n"


class TestToyCommands:
    @pytest.fixture
    def model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(TOY_MODEL))
        return str(path)

    def test_demo(self, model_file):
        proc = run_cli("toy", "demo", "--model", model_file, "--order", "2")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["factorizationHolds"] is True
        assert data["smatrix"]["order"] == 2
        # the j^1 coefficient of the S-matrix carries 1/(i hbar)
        j1 = [t for t in data["smatrix"]["terms"] if (t["g"], t["j"]) == (0, 1)]
        assert j1 == [
            {
                "g": 0,
                "j": 1,
                "hbar": [{"pow": -1, "coeff": {"re": "0", "im": "-1"}}],
                "value": ["a"],
            }
        ]

    def test_bogoliubov(self, model_file):
        proc = run_cli("toy", "bogoliubov", "--model", model_file, "--order", "2")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["bogoliubovHolds"] is True

    def test_out_file(self, model_file, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("toy", "bogoliubov", "--model", model_file, "--out", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["bogoliubovHolds"] is True


class TestUsageErrors:
    def test_unknown_flag(self):
        proc = run_cli("cells", "count", "--bogus", "1")
        assert proc.returncode == 2

    def test_dynkin_rank_has_no_exact_flag(self):
        # one certified path: the exact elimination is a test oracle only
        proc = run_cli("dynkin", "rank", "--exact")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --exact" in proc.stderr

    def test_unknown_command(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_size_limit(self):
        proc = run_cli("cells", "count", "--n", "9")
        assert proc.returncode == 2

    @pytest.mark.parametrize("args", OVER_BOUND, ids=lambda a: "-".join(a[:2] + a[3:]))
    def test_bound_checked_before_work(self, tmp_path, args):
        # the bound is checked before any work, so this returns at once
        if args[0] == "toy":
            path = tmp_path / "model.json"
            path.write_text(json.dumps(TOY_MODEL))
            args += ("--model", str(path))
        proc = run_cli(*args, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("size limit: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("steinmann", "verify", "--n", "2"),
            ("ruelle", "verify", "--n", "0"),
            ("glz", "verify", "--n", "1"),
        ],
    )
    def test_vacuous_run_rejected(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "checked no instances" in proc.stderr

    def test_dynkin_rank_of_empty_ground_rejected(self):
        # the unit is not primitive, so n = 0 is a usage error, not a failed identity
        proc = run_cli("dynkin", "rank", "--n", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: dynkin rank needs a nonempty ground set\n"

    @pytest.mark.parametrize(
        "args",
        [("cells", "count", "--n", "-1"), ("series", "identities", "--order", "-1")],
    )
    def test_negative_size_rejected(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "must be >= 0" in proc.stderr

    @pytest.mark.parametrize(
        "args,text",
        [(("dynkin", "rank", "--n", "abc"), "'abc'"), (("series", "identities", "--order", "1.5"), "'1.5'")],
    )
    def test_non_integer_size_rejected(self, args, text):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"expected a non-negative integer, got {text}" in proc.stderr
        assert "_nonnegative_int" not in proc.stderr

    @pytest.mark.parametrize("content", [None, "{not json", '{"observables": 3}', "{}"])
    def test_bad_model_file(self, tmp_path, content):
        path = tmp_path / "model.json"
        if content is not None:
            path.write_text(content)
        proc = run_cli("toy", "demo", "--model", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
