"""README's Python session and its command block run as printed."""

import hashlib
import json
import re
import shlex
from pathlib import Path

from coarse_teich.calibration import ENV_VAR
from coarse_teich.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_session_runs(capsys):
    (session,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(session, str(README), "exec"), {})
    final, formula = capsys.readouterr().out.split()
    assert final == formula


# the files the command block names: a flat marking, one offset from it by a
# gluing twist and a slot flip, and a symmetric marking on the slot base 5/2
README_FILES = {
    "first.json": {
        "glue": [{"tau": 0, "D": 0}] * 2,
        "slots": [{"base": "0/1", "trans": "1/0", "D": 0}] * 2,
    },
    "second.json": {
        "glue": [{"tau": 25, "D": 0}, {"tau": 0, "D": 0}],
        "slots": [{"base": "5/2", "trans": "7/3", "D": 1}, {"base": "0/1", "trans": "1/0", "D": 0}],
    },
    "marking.json": {
        "glue": [{"tau": 1000, "D": 0}, {"tau": 1001, "D": 0}],
        "slots": [{"base": "5/2", "trans": "4998/1999", "D": 0},
                  {"base": "5/2", "trans": "4993/1997", "D": 0}],
    },
}

# the packaged record's check and one invocation per error exit
EXTRA_COMMANDS = [
    ["calibrate", "--check"],
    ["barycenter", "marking.json", "--generator", "0"],  # 3: 0 does not generate Z/2
    ["fix-search", "second.json"],  # 4: orbit diameter 16, past R = 10
    ["nonqc", "--d", "56"],  # 6: past the flat family's d range
]


def _command_block() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def test_readme_command_block_matches_its_digest(tmp_path, monkeypatch, capsys):
    # every report, stderr line and written file, hashed; wall_time is the
    # only field of a report that may change between runs
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_VAR, raising=False)
    for name, marking in README_FILES.items():
        (tmp_path / name).write_text(json.dumps(marking))
    h = hashlib.sha256()
    codes = []
    for argv in _command_block() + EXTRA_COMMANDS:
        codes.append(main(argv))
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        report.pop("wall_time", None)
        h.update(json.dumps([argv, codes[-1], report, captured.err], sort_keys=True).encode())
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    assert codes == [0] * 8 + [3, 4, 6]
    assert h.hexdigest()[:16] == "b7e683fe5665eedd"
