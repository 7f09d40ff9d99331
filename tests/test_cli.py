import json

import pytest

from treedual import cli


@pytest.mark.parametrize("command", ["price", "curve"])
def test_manifest_reports_dual_solves(tri1_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--market", str(tri1_file), "--utility", "exp:gamma=1,C=2",
            "--claim", "up", "--output-dir", str(out), "--format", "structured"]
    assert cli.run(argv) == cli.EXIT_OK
    structured = json.loads(capsys.readouterr().out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dual_solves"] == structured["manifest"]["dual_solves"]
    assert 1 <= manifest["dual_solves"] <= 40
    assert "workers" not in manifest["config"]
    csv = "price.csv" if command == "price" else "volume_curve.csv"
    assert (out / csv).read_text().splitlines() == structured["tables"][csv]


def test_workers_flag_is_gone(tri1_file):
    argv = ["curve", "--market", str(tri1_file), "--utility", "exp:gamma=1,C=2",
            "--claim", "up", "--workers", "4"]
    assert cli.run(argv) == cli.EXIT_INPUT
