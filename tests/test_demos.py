"""Every demo script runs to the end from a fresh working directory."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_all_five_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    for name in re.findall(r"demo_out/(\S+\.svg)", out):  # each plot it says it wrote
        assert (tmp_path / "demo_out" / name).read_text().startswith("<svg")
    if demo.name.startswith("04"):
        # one call to the refit rule cleans the density, with no retries
        assert "density unimodal after constraint: True" in out
        assert "retry" not in out
