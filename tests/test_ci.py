"""The CI workflow's own tools: the source size script and the paths its steps run.

``scripts/src_size.py`` prints ``src/voinet``'s line and statement deltas
against the parent commit, checked here on a two-commit repository.  Every
repository path a workflow's ``run:`` block names must exist, so a deleted
script or config cannot leave CI pointing at nothing; the blocks are found
by a plain text scan, without a YAML parser.
"""

import re
import shutil
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

#: The indentation and value of a ``run:`` key, in a step's first line or its own.
RUN_KEY = re.compile(r"^( *)(?:- )?run: *(.*)$")
#: A shell word that starts with one of the repository's top-level directories.
REPO_PATH = re.compile(
    r"(?<![\w$/.-])((?:{})/[^\s\"'|;&<>()]*)".format(
        "|".join(p.name for p in REPO_ROOT.iterdir() if p.is_dir() and not p.name.startswith(".")))
)


def run_blocks(text):
    """The shell of every ``run:`` key: its value, or the block scalar indented under it."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        match = RUN_KEY.match(line)
        if match is None:
            continue
        indent, value = len(match.group(1)), match.group(2)
        if not value.startswith(("|", ">")):
            yield value
            continue
        block = []
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            block.append(body)
        yield "\n".join(block)


def test_every_path_a_workflow_step_runs_exists():
    named = set()
    for workflow in (REPO_ROOT / ".github" / "workflows").glob("*.yml"):
        for block in run_blocks(workflow.read_text(encoding="utf-8")):
            # A word with a shell expansion in it names no one file.
            named |= {path for path in REPO_PATH.findall(block) if not set("$*?[") & set(path)}
    assert {"configs", "results", "scripts", "perfbench"} <= {p.split("/")[0] for p in named}
    missing = sorted(path for path in named if not (REPO_ROOT / path).exists())
    assert missing == []


def write_commit(repo, files, message):
    for name, text in files.items():
        path = repo / "src" / "voinet" / name
        if text is None:
            path.unlink()
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    git = ["git", "-c", "user.name=voinet", "-c", "user.email=voinet@example.invalid",
           "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "add", "-A"], cwd=repo, check=True, capture_output=True)
    subprocess.run([*git, "commit", "-q", "-m", message], cwd=repo, check=True,
                   capture_output=True)


def src_size(repo):
    result = subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / "src_size.py")],
                            cwd=repo, capture_output=True, text=True, check=True)
    return result.stdout.splitlines()


@pytest.mark.skipif(shutil.which("git") is None, reason="no git")
def test_src_size_prints_the_deltas_against_the_parent_commit(tmp_path):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True, capture_output=True)
    write_commit(tmp_path, {"a.py": "x = 1\ny = 2\nz = 3\n", "c.py": "pass\n"}, "parent")
    assert src_size(tmp_path)[-2:] == ["       4        4 in total",
                                       "no parent commit to compare with"]
    # a.py shrinks, c.py goes and b.py comes: 7 lines and 5 statements, from 4 and 4.
    b = 'def f():\n    """Doc."""\n    x = [\n        1,\n    ]\n    return x\n'
    write_commit(tmp_path, {"a.py": "x = 1\n", "b.py": b, "c.py": None}, "change")
    assert src_size(tmp_path) == [
        "   lines    stmts module",
        "       1        1 src/voinet/a.py",
        "       6        4 src/voinet/b.py",
        "       7        5 in total",
        "      +3 lines against the parent commit",
        "      +1 AST statements against the parent commit",
    ]
