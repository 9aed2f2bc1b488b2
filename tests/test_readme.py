"""The README's examples run and print what the README says they print, and
its public-surface paragraph names what the package holds."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import negcurve

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_quick_tour_runs():
    (block,) = fenced("python")
    exec(compile(block, "README.md", "exec"), {})


def test_basis_example_prints_documented_output():
    lines = [line for block in fenced("sh") for line in block.splitlines()]
    command = "negcurve basis --k 1 --j 2 --m 3"
    expected = lines[lines.index(command) + 1]
    assert expected.startswith("# ")
    proc = subprocess.run([sys.executable, "-m", "negcurve.cli"] + command.split()[1:],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == expected[2:] + "\n"


def test_public_surface_paragraph_matches_the_package():
    match = re.search(r"^`negcurve\.__all__` holds .*? (\d+) names\.\s+Internal steps stay in "
                      r"their modules:(.*?)\n\n", README, re.M | re.S)
    assert match, "public-surface paragraph not found"
    assert int(match[1]) == len(negcurve.__all__)
    steps = re.findall(r"`(\w+)\.(\w+)`", match[2])
    assert steps
    for module, name in steps:
        getattr(importlib.import_module(f"negcurve.{module}"), name)
