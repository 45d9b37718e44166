"""README's Python session runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_session_runs(capsys):
    (session,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(session, str(README), "exec"), {})
    final, formula = capsys.readouterr().out.split()
    assert final == formula
