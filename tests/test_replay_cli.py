"""tools/replay_cli.py: one tree agrees with itself, and a changed tree is caught."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "replay_cli.py"


def replay(a, b, count=8):
    return subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--seed", "401", "--count", str(count)],
        capture_output=True,
        text=True,
    )


def test_replay_agrees_on_one_tree_and_catches_a_change(tmp_path):
    same = replay(ROOT, ROOT)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout == "8 requests of seed 401: rc and stdout identical\n"

    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "adelic_kummer" / "cli.py"
    text = cli.read_text()
    assert text.count('"b": b}') == 1
    cli.write_text(text.replace('"b": b}', '"b": b, "extra": 0}'))
    changed = replay(ROOT, tmp_path)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    # the fourth request of every cli-mix stream is a conjugate request
    assert changed.stdout.startswith("request 3 of seed 401 differs: [")
    assert '"conjugate"' in changed.stdout
