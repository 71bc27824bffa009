"""Print src/voinet's line and AST statement counts, and their deltas against HEAD^.

    python3 scripts/src_size.py

Run it from the root of a git checkout; it takes no options.  Each module
gets its line count and its count of ``ast.stmt`` nodes.  About a quarter of
the lines are docstrings, so the statement count tells a smaller design from
shorter prose.  The parent commit's modules are read with ``git show``; with
no parent commit there are no deltas.  Standard library only; it gates
nothing.
"""

import ast
import pathlib
import subprocess

PACKAGE = "src/voinet"


def size(text: str) -> tuple[int, int]:
    """(lines, AST statements) of one module's source."""
    tree = ast.parse(text)
    return len(text.splitlines()), sum(isinstance(node, ast.stmt) for node in ast.walk(tree))


def git_show(spec: str) -> str:
    return subprocess.run(["git", "show", spec], capture_output=True, check=True).stdout.decode()


def main() -> None:
    lines = statements = 0
    print("   lines    stmts module")
    for path in sorted(pathlib.Path(PACKAGE).glob("*.py")):
        count = size(path.read_text(encoding="utf-8"))
        lines, statements = lines + count[0], statements + count[1]
        print(f"{count[0]:8d} {count[1]:8d} {path.as_posix()}")
    print(f"{lines:8d} {statements:8d} in total")
    try:  # the listing of a tree starts "tree HEAD^:src/voinet" and a blank line
        names = git_show(f"HEAD^:{PACKAGE}").splitlines()[2:]
    except subprocess.CalledProcessError:
        print("no parent commit to compare with")
        return
    parent = [size(git_show(f"HEAD^:{PACKAGE}/{name}")) for name in names if name.endswith(".py")]
    print(f"{lines - sum(n for n, _ in parent):+8d} lines against the parent commit")
    print(f"{statements - sum(n for _, n in parent):+8d} AST statements against the parent commit")


if __name__ == "__main__":
    main()
