"""The demos run as scripts and print what they promise."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_maximality_certificates_demo():
    proc = run_demo("05_maximality_certificates.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "recheck stored certificate: True" in lines
    assert lines[-1] == "recheck forged certificate: False"


def test_iterates_demo_factor_degrees():
    proc = run_demo("04_iterates_discriminants.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-6:] == [
        "g_2 - 5*h_2 = -3 -28 2 12 -3",
        "  factor degrees mod 7: (2, 2)",
        "  factor degrees mod 11: (2, 2)",
        "  factor degrees mod 13: (2, 1, 1)",
        "  factor degrees mod 17: (2, 2)",
        "  factor degrees mod 19: (4,)",
    ]


def test_radical_demo_reads_the_constant_field_quotient():
    proc = run_demo("06_radical_identities.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "M5/G5: order 8, non-abelian: True, 5 involutions -> dihedral: True")
