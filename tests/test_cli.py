import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = [sys.executable, "-m", "sethopf.cli"]


def run_cli(*args, timeout=600):
    proc = subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=timeout
    )
    return proc


# sha256 of the stdout of `cells enumerate --n N --witnesses`: each cell's
# witness is its orbit representative's, moved by the member's permutation.
# It does not depend on PYTHONHASHSEED: the walk's order and the LP pivot
# sequence fix every witness.
WITNESS_DIGESTS = {
    2: "ba29a380695f5562a8178aed0aa18773eadf9d0b9ebf5e9853c20827fbea7951",
    3: "701ed35ec420866fdb194f52b0a8e3d286f15e8c0fcdec651ed0e71326780ce8",
    4: "b1e93ca37ba55c487f7bef2d88c8be2cf17f8d70be36cd4b5cd6cba2578674dc",
    5: "b1abe8ef024015b51a856129e244ba83d18436014aa357b7f140bbe2be186142",
    6: "c3c17d55d504e7682fe60f27e8d840499868874c30b62ed9087122503f827741",
}

# sha256 of the same stdout with every "witness" field removed and the rest
# written back as the CLI writes it: the cells and their order, as the
# insertion enumeration gave them with its own witnesses.
WITNESS_STRIPPED_DIGESTS = {
    2: "5e46dcdd79a8d0d322534c24b2550562c22239ee1ff38ac4fa669678512db141",
    3: "658feccd2276420bae482093041bdae0c49caad3fd5f8ff19717cd9eb1b9e0d9",
    4: "de4fb9107f926903d93cad5cc4c18f2f926d822d48ef86c3c3633bfe8deb54af",
    5: "136e532137b6c40801cf441527f5efe761bc8f9de1feaeef0234308d32104aee",
    6: "e6b9ee8f709c3842cab5300432e092869985164ffc18744a2c99790ef4d08d8a",
}

# sha256 of the stdout of `cells enumerate --n N`, without witnesses: the
# orbit walk's cells, which must be the insertion enumeration's.
ENUMERATE_DIGESTS = {
    4: "de4fb9107f926903d93cad5cc4c18f2f926d822d48ef86c3c3633bfe8deb54af",
    5: "136e532137b6c40801cf441527f5efe761bc8f9de1feaeef0234308d32104aee",
    6: "e6b9ee8f709c3842cab5300432e092869985164ffc18744a2c99790ef4d08d8a",
}

# sha256 of the stdout of `hopf check --n 5`: the counters of its 277,060
# Hopf-axiom checks and the Tits checks at m = 3.
HOPF_CHECK_N5_DIGEST = "f88ee2e069edfea35ba3117b0c09f9ad0f87cfd6e011bac7a29f6ba455357a12"

# The counters of `hopf check --n 6`, in their order of first appearance:
# its 6,076,113 Hopf-axiom checks, then the Tits checks at m = 3.
HOPF_CHECK_N6_COUNTERS = {
    "checked": 6080977,
    "failures": 0,
    "associativity": 95863,
    "coassociativity": 3551827,
    "compatibility": 1752133,
    "unit": 5317,
    "counit": 5317,
    "cocommutativity": 318343,
    "antipode-takeuchi": 5317,
    "h-q-roundtrip": 5317,
    "q-h-roundtrip": 5317,
    "antipode-convolution": 5316,
    "q-top-primitive": 6,
    "q-product": 18330,
    "q-coproduct": 307710,
    "tits-unit": 17,
    "tits-idempotent": 17,
    "tits-associativity": 2225,
    "tits-vs-hopf-power": 179,
    "tits-action-compat": 2225,
    "tits-associativity-n4": 25,
    "tits-vs-hopf-power-n4": 25,
    "tits-idempotent-n4": 75,
    "hopf-power-kills-primitive": 76,
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
    6: '{"cells":11292,"rank":1082,"zieDim":1082,"status":"pass"}\n',
}

# sha256 of the stdout of `toy demo` and `toy bogoliubov --order N` on
# TOY_MODEL, keyed by N. They do not depend on PYTHONHASHSEED: every series
# is printed in sorted order.
TOY_DIGESTS = {
    "demo": {
        0: "129be5034e8ebb17c4ab94d77e83dd5d7ba430053c051f880a0889688b748422",
        1: "f6be979528c66ad1143fb4a41898760ca06ee2d3452caf5d390d3d6f4cee1e85",
        2: "a95eabd507ea595457fadac6145a8e9ad05a6f7ae6e26de6afeb447c6cc369fd",
        3: "a9ac79b4730fe1a19e0d16405389681893efc6bad38f94a4c3bed80d63ef679c",
        4: "efb249a2a3400dfb6228f4f2295af78f2a39fd8d8784e4c962d39818983fa610",
        5: "ee731ad5ae6d8b76a36489fd119e175b9a7f7c62f09be60ac1a4c7508c2ecafe",
        6: "50f90759b4fed70ae456901927f2307fe7d36572c7507f71d7c0c68fd19e3b7e",
        7: "f9b0bbdf1e61da05ce4e41c3a804de566e8fb0996a439c068764a87781223e4e",
        8: "470bb0fa5a331b8af8f5f0b04d4c881e9912e291e7053a8bb864689ca6c3a94d",
    },
    "bogoliubov": {
        1: "b3e0b6afd4f290d78563c3dae7e0e81c7e1325ae82d2aae74f967811076de5e9",
        2: "5e495e988184ed2506cb9719ce71fb72c2845a4e5a7569b7172633896e7a64f2",
        3: "5a31a06230a9ac802dec292d0610d02af9a76aa583388dc0a6faa5f2fcdea59a",
        4: "f55cab723e469884fb7f0ea335bf0041a06381dfc96668eefcc317dcd6cacb84",
        5: "ffef74d712965f20c414fa9dd86bf8266fc05056b304ca0efdb3f4a604df9a97",
        6: "2d0011aee8f2d10b2d2d41fa32abe5ef38130dd19caf16ffccc75cb51e93e1e9",
        7: "6edf36b5029de25c59138f2e8a92ab660f21b502e30ff353dfe2791136a3a46d",
        8: "d4b3c656677121945695ed0152290752a6268dd903c5b7a99f736b56756ca800",
    },
}

# The same on LATER_TOY_MODEL, where the interaction comes after the
# observable, so the time orderings differ from TOY_MODEL's from order 2 on.
LATER_TOY_DIGESTS = {
    "demo": {
        0: "129be5034e8ebb17c4ab94d77e83dd5d7ba430053c051f880a0889688b748422",
        1: "f6be979528c66ad1143fb4a41898760ca06ee2d3452caf5d390d3d6f4cee1e85",
        2: "f283e2da41af9b3bc600a291af3c1e2e4acaee900ceb5a09840551dbb866f3fb",
        3: "cc7b4950e8575548acc9bb0fd092e19d6ab420f2f666eb130f2176d69d8268b1",
        4: "21f536c4a1fbe0d158956e8875db7d26e3947b6fc6b3d0eb9b8f5999b51988fd",
        5: "cca4d6473b7a9c8254931cfd87992570bdf93ce501f10f1a51a09bb6e4a469d4",
    },
    "bogoliubov": {
        1: "b3e0b6afd4f290d78563c3dae7e0e81c7e1325ae82d2aae74f967811076de5e9",
        2: "d2acdeead30488729d309af717a81abedfd5dd5ab14eda21cdda9940dc435df2",
        3: "5a321adfb210529ccda676544a321c21ce89a3a5ea3c11a65dd345adb77e7b0e",
        4: "3e1d79e01c0b1945261d3db8cb0a1fdce343ae7b2b708bf2caf381948fe9f1e1",
        5: "122e42d4f89f2b934f55b86489d4e90eea4987e15c70eb4b061c65c517b7abfe",
    },
}

# The stdout of `series identities --order 4` and `arrows verify --n 3`.
SERIES_STDOUT_ORDER_4 = (
    '{"command":"series identities","parameters":{"order":4},"status":"pass",'
    '"counters":{"checked":34,"failures":0,"convolution-unit":6,"convolution-associativity":3,'
    '"universal-group-like":3,"universal-antipode-inverse":3,"unit-group-like":1,'
    '"primitive-series-not-group-like":1,"polynomial-homomorphism":1,"causal-homomorphism":1,'
    '"broken-system-detected":1,"texp-homomorphism":2,"texp-unit":2,"texp-inverse":2,'
    '"exponential-splitting":1,"classical-exponential":1,"coderivation-vs-binomial":2,'
    '"coderivation-g0-slice":2,"arrow-g0-slice":1,"formal-diff":1},"payload":{}}\n'
)
ARROWS_STDOUT_N3 = (
    '{"command":"arrows verify","parameters":{"n":3},"status":"pass",'
    '"counters":{"checked":524,"failures":0,"biderivation-derivation":42,'
    '"biderivation-coderivation":118,"biderivation-coderivation-right":118,'
    '"arrow-order-independence":36,"arrow-updown-commutator":18,"arrow-preserves-primitive":18,'
    '"arrow-bracket-derivation":9,"arrow-dynkin-down":18,"arrow-dynkin-up":18,'
    '"arrow-product-law":58,"retarded-expansion":34,"advanced-expansion":34,'
    '"retarded-instance":1,"advanced-instance":1,"retarded-is-total-dynkin":1},"payload":{}}\n'
)

# Each command one past the bound of its --n or --order.
OVER_BOUND = [
    ("hopf", "check", "--n", "7"),
    ("cells", "count", "--n", "7"),
    ("cells", "enumerate", "--n", "7"),
    ("dynkin", "rank", "--n", "7"),
    ("steinmann", "verify", "--n", "6"),
    ("ruelle", "verify", "--n", "7"),
    ("glz", "verify", "--n", "7"),
    ("arrows", "verify", "--n", "6"),
    ("series", "identities", "--order", "9"),
    ("toy", "demo", "--order", "18"),
    ("toy", "bogoliubov", "--order", "20"),
]

TOY_MODEL = {
    "observables": [{"id": "a", "time": "1"}, {"id": "s", "time": "0"}],
    "interaction": "s",
}
LATER_TOY_MODEL = {
    "observables": [{"id": "a", "time": "-1/2"}, {"id": "s", "time": "2"}],
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

    @pytest.mark.parametrize(
        "n",
        [pytest.param(n, marks=pytest.mark.heavy) if n >= 6 else n for n in sorted(DYNKIN_RANK_STDOUT)],
    )
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
        [pytest.param(n, marks=pytest.mark.heavy) if n >= 6 else n for n in sorted(WITNESS_STRIPPED_DIGESTS)],
    )
    def test_witness_output_without_witnesses_pinned(self, n):
        proc = run_cli("cells", "enumerate", "--n", str(n), "--witnesses")
        assert (proc.returncode, proc.stderr) == (0, "")
        data = json.loads(proc.stdout)
        for cell in data["cells"]:
            del cell["witness"]
        text = json.dumps(data, separators=(",", ":")) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_STRIPPED_DIGESTS[n]

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
            raise AssertionError("cells enumerate without --witnesses built witnesses")

        monkeypatch.setattr(cli, "enumerate_cells_with_witnesses", no_insertion)
        assert cli.run(["cells", "enumerate", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[4]

    def test_witness_enumeration_runs_no_insertion(self, monkeypatch, capsys):
        # the witnesses come from an uncached orbit walk, not the oracle
        from sethopf import cells, cli

        def no_insertion(ground):
            raise AssertionError("cells enumerate --witnesses ran the insertion enumeration")

        monkeypatch.setattr(cells, "_insertion_enumeration", no_insertion)
        monkeypatch.setattr(cells, "_enumerate_cells_cached", cells._enumerate_cells_cached.__wrapped__)
        monkeypatch.setattr(cells, "_cell_orbits", cells._cell_orbits.__wrapped__)
        assert cli.run(["cells", "enumerate", "--n", "5", "--witnesses"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == WITNESS_DIGESTS[5]

    def test_cells_count_builds_no_cell(self, monkeypatch, capsys):
        # the count is the number of orbit members of an uncached walk, with
        # no Cell built and no enumeration sorted
        from sethopf import cells, cli

        def no_cell(*args):
            raise AssertionError("cells count built a Cell")

        monkeypatch.setattr(cells.Cell, "__init__", no_cell)
        monkeypatch.setattr(cells.Cell, "_of", no_cell)
        monkeypatch.setattr(cli, "enumerate_cells", no_cell)
        monkeypatch.setattr(cli, "_cell_orbits", cells._cell_orbits.__wrapped__)
        assert cli.run(["cells", "count", "--n", "5"]) == 0
        assert capsys.readouterr().out == '{"n":5,"count":370}\n'

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

    @pytest.mark.heavy
    def test_hopf_check_n5_output_pinned(self):
        proc = run_cli("hopf", "check", "--n", "5")
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == HOPF_CHECK_N5_DIGEST

    @pytest.mark.heavy
    def test_hopf_check_n6_counters(self):
        # at the bound: about 2 minutes on a 2-core machine
        proc = run_cli("hopf", "check", "--n", "6", timeout=1200)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["status"] == "pass"
        assert list(report["counters"].items()) == list(HOPF_CHECK_N6_COUNTERS.items())

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

    def test_series_report_pinned(self):
        proc = run_cli("series", "identities", "--order", "4")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, SERIES_STDOUT_ORDER_4, "")

    def test_arrows_verify(self):
        proc = run_cli("arrows", "verify", "--n", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "pass"

    def test_arrows_report_pinned(self):
        proc = run_cli("arrows", "verify", "--n", "3")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, ARROWS_STDOUT_N3, "")

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

    @pytest.mark.parametrize(
        "command, order",
        [
            pytest.param(c, o, marks=pytest.mark.heavy) if o >= 7 else (c, o)
            for c in sorted(TOY_DIGESTS)
            for o in sorted(TOY_DIGESTS[c])
        ],
    )
    def test_output_pinned(self, model_file, command, order):
        proc = run_cli("toy", command, "--model", model_file, "--order", str(order))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == TOY_DIGESTS[command][order]

    @pytest.mark.parametrize(
        "command, order", [(c, o) for c in sorted(LATER_TOY_DIGESTS) for o in sorted(LATER_TOY_DIGESTS[c])]
    )
    def test_later_interaction_output_pinned(self, tmp_path, command, order):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(LATER_TOY_MODEL))
        proc = run_cli("toy", command, "--model", str(path), "--order", str(order))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == LATER_TOY_DIGESTS[command][order]

    def test_bogoliubov_order_zero_rejected(self, model_file):
        # the generating function has no j-term at order 0: a usage error,
        # not a failed identity
        proc = run_cli("toy", "bogoliubov", "--model", model_file, "--order", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: Bogoliubov's formula needs order >= 1, got 0\n"

    def test_demo_script_rejects_order_zero(self):
        script = Path(__file__).resolve().parent.parent / "scripts" / "toy_model_demo.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--order", "0"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "needs order >= 1, got 0" in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["--order", "18"], "size limit: ground-set size 18 exceeds the toy demo bound 17\n"),
        (["--interaction-time", "x"], "expected a rational time, got 'x'\n"),
        (["--observable-time", "1/0"], "expected a rational time, got '1/0'\n"),
    ])
    def test_demo_script_rejects_bad_input_before_work(self, argv, message):
        script = Path(__file__).resolve().parent.parent / "scripts" / "toy_model_demo.py"
        # order 18 would take a minute and over 1 GB: the bound is checked before any work
        proc = subprocess.run([sys.executable, str(script), *argv], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.endswith(message) and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("option", ["--interaction-time", "--observable-time"])
    def test_demo_script_takes_a_negative_time(self, option):
        script = Path(__file__).resolve().parent.parent / "scripts" / "toy_model_demo.py"
        proc = subprocess.run([sys.executable, str(script), "--order", "1", option, "-1/2"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        model = {"--interaction-time": "s@-1/2, observable a@1",
                 "--observable-time": "s@0, observable a@-1/2"}[option]
        assert proc.stdout.startswith(f"# model: interaction {model}, order 1\n")

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

    @pytest.mark.parametrize("time, message", [
        pytest.param('"1/0"', "ZeroDivisionError", id="zero-denominator"),
        pytest.param("Infinity", "time of observable 'a' is a float, not a rational number", id="infinity"),
        pytest.param("0.1", "time of observable 'a' is a float, not a rational number", id="float"),
        pytest.param("true", "time of observable 'a' is a boolean, not a rational number", id="boolean"),
    ])
    @pytest.mark.parametrize("command", ["demo", "bogoliubov"])
    def test_bad_model_time(self, tmp_path, command, time, message):
        # a time the model cannot hold is bad input, not a failed identity
        path = tmp_path / "model.json"
        path.write_text('{"observables": [{"id": "a", "time": %s}, {"id": "s", "time": "0"}], '
                        '"interaction": "s"}' % time)
        proc = run_cli("toy", command, "--model", str(path), "--order", "1")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr


@pytest.mark.parametrize(
    "args",
    [("hopf", "check", "--n", "3"), ("series", "identities", "--order", "3"), ("toy", "demo", "--order", "3"),
     ("toy", "bogoliubov", "--order", "3")],
    ids=lambda a: "-".join(a[:2]),
)
def test_output_does_not_depend_on_hash_seed(tmp_path, args):
    # compositions hash by identity, that is by address, and strings by the
    # seed: no output may follow the iteration order of a set of either
    if args[0] == "toy":
        path = tmp_path / "model.json"
        path.write_text(json.dumps(TOY_MODEL))
        args += ("--model", str(path))
    outs = []
    for seed in ("0", "123"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=600, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
