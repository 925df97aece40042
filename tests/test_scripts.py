"""Smoke tests: the walkthrough scripts run in-process and print their tables."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, capsys, *args):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def test_zobel_walkthrough(monkeypatch, capsys):
    out = run_script("zobel_walkthrough.py", monkeypatch, capsys)
    assert out.startswith("cone over quadric_surface: dimension 3")
    assert "  D . M = 1\n" in out
    rejected = [line for line in out.splitlines() if line.startswith("  rejected: ")]
    assert len(rejected) == 1


def test_cone_over_projective_space(monkeypatch, capsys):
    out = run_script("cone_over_projective_space.py", monkeypatch, capsys)
    assert out.startswith("cone over P^2: dimension 3")
    assert "C(hyperplane) . line -> degree 1" in out
    out = run_script("cone_over_projective_space.py", monkeypatch, capsys, "3")
    assert out.startswith("cone over P^3: dimension 4")
