#!/usr/bin/env python3
"""Net lines of code between two revisions, in three groups.

    python3 scripts/net_loc.py <base> [<head>|.]

`head` defaults to `.`, the working tree (tracked and staged files; run
`git add -N` on a new file to count it). Every added and removed line
falls in one group:

* tests: files under a `tests/` or `testdata/` directory, files named
  `tests.rs` or `*_tests.rs`, and the lines of every inline
  `#[cfg(test)] mod` block, found in each side's own version of a file;
* docs/scripts: Markdown, and anything under `docs/`, `scripts/`,
  `.github/` or `.claude/`;
* program: everything else.

Each group is printed twice: in full, and without the lines that
`git diff --color-moved=blocks --color-moved-ws=allow-indentation-change`
marks as moved (a block moved into or out of a `mod` keeps its lines), so
a file split counts only what changed on the way.
"""

import re
import subprocess
import sys

SGR = re.compile(r"\x1b\[[0-9;]*m")
LEAD = re.compile(r"^\x1b\[([0-9;]*)m([+-])")
HUNK = re.compile(r"^@@+ -(\d+)(?:,\d+)? \+(\d+)(?:,\d+)? @@")
MOD = re.compile(r"^(\s*)(pub(\([a-z]+\))? )?mod \w+\s*(\{|;)")
MOVED = {"35", "36"}
GROUPS = ("program", "tests", "docs/scripts")


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def contents(rev, path):
    """The file at `rev` (`.` = working tree), or "" if it is not there."""
    try:
        if rev == ".":
            with open(path, encoding="utf-8", errors="replace") as f:
                return f.read()
        return git("show", f"{rev}:{path}")
    except (OSError, subprocess.CalledProcessError):
        return ""


def cfg_test_lines(text):
    """1-based numbers of the lines inside `#[cfg(test)] mod` blocks."""
    lines = text.split("\n")
    out = set()
    i = 0
    while i < len(lines):
        if lines[i].strip() != "#[cfg(test)]":
            i += 1
            continue
        j = i + 1
        while j < len(lines) and lines[j].strip().startswith("#["):
            j += 1
        m = MOD.match(lines[j]) if j < len(lines) else None
        if not m:
            i += 1
            continue
        end = j
        if m.group(4) == "{":
            close = m.group(1) + "}"
            while end < len(lines) and lines[end] != close:
                end += 1
        out.update(range(i + 1, end + 2))
        i = end + 1
    return out


def group_of_path(path):
    parts = path.split("/")
    name = parts[-1]
    if "tests" in parts[:-1] or "testdata" in parts[:-1]:
        return "tests"
    if name == "tests.rs" or name.endswith("_tests.rs"):
        return "tests"
    if name.endswith(".md") or parts[0] in ("docs", "scripts", ".github", ".claude"):
        return "docs/scripts"
    return "program"


class Side:
    """One side of the diff: classifies a (path, line) pair."""

    def __init__(self, rev):
        self.rev = rev
        self.cache = {}

    def group(self, path, line):
        by_path = group_of_path(path)
        if by_path != "program" or not path.endswith(".rs"):
            return by_path
        if path not in self.cache:
            self.cache[path] = cfg_test_lines(contents(self.rev, path))
        return "tests" if line in self.cache[path] else "program"


def count(base, head):
    colors = {
        "color.diff.old": "red",
        "color.diff.new": "green",
        "color.diff.oldMoved": "magenta",
        "color.diff.newMoved": "cyan",
        "color.diff.oldMovedAlternative": "magenta",
        "color.diff.newMovedAlternative": "cyan",
        "color.diff.frag": "yellow",
        "color.diff.meta": "bold",
    }
    args = []
    for key, value in colors.items():
        args += ["-c", f"{key}={value}"]
    revs = [base] if head == "." else [base, head]
    diff = git(
        *args,
        "diff",
        "--color=always",
        "--color-moved=blocks",
        "--color-moved-ws=allow-indentation-change",
        "-U0",
        *revs,
        "--",
    )
    old, new = Side(base), Side(head)
    totals = {(g, moved): [0, 0] for g in GROUPS for moved in (False, True)}
    old_path = new_path = None
    old_line = new_line = 0
    in_header = False
    for raw in diff.split("\n"):
        plain = SGR.sub("", raw)
        if plain.startswith("diff --git "):
            in_header = True
            old_path = new_path = None
            continue
        if in_header:
            if plain.startswith("--- "):
                old_path = None if plain == "--- /dev/null" else plain[6:]
            elif plain.startswith("+++ "):
                new_path = None if plain == "+++ /dev/null" else plain[6:]
            in_header = not plain.startswith("@@")
            if in_header:
                continue
        m = HUNK.match(plain)
        if m:
            old_line, new_line = int(m.group(1)), int(m.group(2))
            continue
        lead = LEAD.match(raw)
        if not lead:
            continue
        moved = any(code in MOVED for code in lead.group(1).split(";"))
        if lead.group(2) == "+":
            g = new.group(new_path, new_line)
            totals[(g, moved)][0] += 1
            new_line += 1
        else:
            g = old.group(old_path, old_line)
            totals[(g, moved)][1] += 1
            old_line += 1
    return totals


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    base = sys.argv[1]
    head = sys.argv[2] if len(sys.argv) == 3 else "."
    totals = count(base, head)
    print(f"net LOC {base} -> {'working tree' if head == '.' else head}")
    print(f"{'group':<14}{'added':>8}{'removed':>9}{'net':>8}   "
          f"{'not moved:':<11}{'added':>7}{'removed':>9}{'net':>8}")
    for g in GROUPS:
        still, moved = totals[(g, False)], totals[(g, True)]
        add, rem = still[0] + moved[0], still[1] + moved[1]
        print(f"{g:<14}{add:>8}{rem:>9}{add - rem:>+8}   "
              f"{'':<11}{still[0]:>7}{still[1]:>9}{still[0] - still[1]:>+8}")


if __name__ == "__main__":
    main()
