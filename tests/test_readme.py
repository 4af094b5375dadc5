"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    section = README.read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, f"{README.name} quick start", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("objective ")
    assert "CertificateReport(" in out
