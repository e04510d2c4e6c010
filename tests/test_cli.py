import json
import subprocess
import sys

import pytest

RUN = [sys.executable, "-m", "sethopf.cli"]


def run_cli(*args):
    proc = subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=600
    )
    return proc


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


class TestToyCommands:
    @pytest.fixture
    def model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {
                    "observables": [
                        {"id": "a", "time": "1"},
                        {"id": "s", "time": "0"},
                    ],
                    "interaction": "s",
                }
            )
        )
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

    def test_unknown_command(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_size_limit(self):
        proc = run_cli("cells", "count", "--n", "9")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "args",
        [("cells", "count", "--n", "-1"), ("series", "identities", "--order", "-1")],
    )
    def test_negative_size_rejected(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "must be >= 0" in proc.stderr

    @pytest.mark.parametrize("content", [None, "{not json", '{"observables": 3}', "{}"])
    def test_bad_model_file(self, tmp_path, content):
        path = tmp_path / "model.json"
        if content is not None:
            path.write_text(content)
        proc = run_cli("toy", "demo", "--model", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
