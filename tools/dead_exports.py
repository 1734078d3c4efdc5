#!/usr/bin/env python3
"""Fail when a library exports a value that no other module names.

Usage, from the repository root:

    python3 tools/dead_exports.py

Every `val` declared in a `lib/**/*.mli` must be named in some `.ml`
under lib, bin, bench, snapbench, test or examples other than its own
module's implementation.  A value only its own module uses belongs out
of the interface; a value nothing uses belongs out of the code.  The
check is by identifier, after comments and string literals are
stripped, so a value shares a name with anything else that is called
the same: it catches the values no one could be calling, not every
unused one.  Exits 1 and lists the offenders, 0 when there are none.
"""

import os
import re
import sys

CALLER_DIRS = ["lib", "bin", "bench", "snapbench", "test", "examples"]

# Values kept without a caller, as "<mli path>:<name>".  The CPU
# accessors wait for the per-layer CPU ledger (ROADMAP.md, item 3),
# which either calls them or deletes them.
EXEMPT = {
    "lib/snap/host.mli:snap_cpu_ns",
    "lib/snap/host.mli:app_cpu_ns",
    "lib/snap/host.mli:softirq_cpu_ns",
    "lib/snap/host.mli:total_cpu_ns",
}

TOKEN = re.compile(
    r"""\(\*|\*\)|"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\[^']+)'|[A-Za-z_][A-Za-z0-9_']*""",
    re.S,
)
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)


def identifiers(text):
    """The identifiers of an OCaml source outside comments and strings."""
    names = set()
    depth = 0
    for m in TOKEN.finditer(text):
        tok = m.group(0)
        if tok == "(*":
            depth += 1
        elif tok == "*)":
            depth = max(0, depth - 1)
        elif depth == 0 and tok[0] not in "\"'":
            names.add(tok)
    return names


def sources(root):
    for top in CALLER_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if d != "_build"]
            for f in filenames:
                if f.endswith(".ml") or f.endswith(".mli"):
                    yield os.path.relpath(os.path.join(dirpath, f), root)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    used_in = {}
    exports = []
    for path in sorted(sources(root)):
        with open(os.path.join(root, path), encoding="utf-8") as fh:
            text = fh.read()
        if path.endswith(".mli"):
            if path.startswith("lib/"):
                exports += [(path, m.group(1)) for m in VAL.finditer(text)]
            continue
        for name in identifiers(text):
            used_in.setdefault(name, set()).add(path)
    dead = []
    for mli, name in exports:
        own = mli[:-1]
        if f"{mli}:{name}" in EXEMPT:
            continue
        if not (used_in.get(name, set()) - {own}):
            dead.append(f"{mli}: val {name} is named by no other module")
    for line in dead:
        print(line)
    if dead:
        print(
            f"{len(dead)} exported value(s) have no caller outside their own "
            "module: delete them, or drop them from the .mli if the module "
            "still uses them."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
