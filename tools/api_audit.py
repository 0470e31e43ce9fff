#!/usr/bin/env python3
"""Who calls the public API: for each public member function of the host
runtime's and the simulator's main classes, the number of files that name
it outside tests/ and inside tests/.

Classes audited: rt::Runtime, shm::Server, shm::Peer, ppc::PpcFacility and
rt::KvService. A member's public functions are read from its class body in
the header (constructors, destructors and operators are skipped; an
overload set is one row).

A file names a member when it contains a member-call spelling of it,
`.name(`, `->name(` or `.name<` (a grep, so a same-named member of another
class counts too: the numbers are an upper bound). The class's own header
and .cpp are not counted. Columns:
  users  files under src/, bench/, hostbench/ and examples/;
  tests  files under tests/.
A row with users 0 is public API that only tests (or nobody) use.

Usage: python3 tools/api_audit.py [repo_root]   (default: the parent of
tools/). Exits 1 when a public member has no caller at all (a row marked
`<- unused`); a member only tests call is reported, not failed.
"""

import pathlib
import re
import sys

# (label, header, own implementation files, class name)
CLASSES = (
    ("rt::Runtime", "src/rt/runtime.h", ("src/rt/runtime.cpp",), "Runtime"),
    ("shm::Server", "src/shm/transport.h", ("src/shm/transport.cpp",),
     "Server"),
    ("shm::Peer", "src/shm/transport.h", ("src/shm/transport.cpp",), "Peer"),
    ("ppc::PpcFacility", "src/ppc/facility.h", ("src/ppc/facility.cpp",),
     "PpcFacility"),
    ("rt::KvService", "src/rt/kv_service.h", (), "KvService"),
)
USER_DIRS = ("src", "bench", "hostbench", "examples")
TEST_DIRS = ("tests",)
SOURCE_SUFFIXES = (".h", ".hpp", ".cpp", ".cc")


def strip_comments(text):
    """The text without comments and preprocessor lines."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"^\s*#[^\n]*", "", text, flags=re.M)
    return re.sub(r"//[^\n]*", "", text)


def class_body(text, name):
    """The text between the braces of `class name {`."""
    m = re.search(r"\bclass\s+" + name + r"\b[^;{]*\{", text)
    if m is None:
        raise SystemExit(f"api_audit: class {name} not found")
    depth, i = 1, m.end()
    start = i
    while depth:
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return text[start:i - 1]


def public_functions(body, name):
    """Names of the functions declared in the body's public sections."""
    names, access, depth, stmt = set(), "private", 0, []
    for tok in re.findall(r"[{};]|[^{};]+", body):
        if tok == "{":
            if depth == 0:
                flush(stmt, access, name, names)
                stmt = []
            depth += 1
        elif tok == "}":
            depth -= 1
        elif depth == 0 and tok == ";":
            flush(stmt, access, name, names)
            stmt = []
        elif depth == 0:
            # An access label may share a statement with what follows it.
            parts = re.split(r"\b(public|private|protected)\s*:", tok)
            for k, part in enumerate(parts):
                if k % 2:
                    flush(stmt, access, name, names)
                    stmt, access = [], part
                else:
                    stmt.append(part)
    return sorted(names)


def flush(stmt, access, name, names):
    decl = " ".join(stmt)
    if access != "public" or "(" not in decl:
        return
    head = decl.split("(", 1)[0]
    # Skip aliases, friends, operators, destructors, data members with an
    # initializer, and the tail of a constructor's initializer list.
    if re.search(r"\b(using|typedef|friend|operator)\b|[=~)]|[^:]:[^:]",
                 head):
        return
    m = re.search(r"([A-Za-z_]\w*)\s*$", head)
    if m and m.group(1) != name:
        names.add(m.group(1))


def source_files(root, dirs):
    for d in dirs:
        base = root / d
        if base.is_dir():
            for p in sorted(base.rglob("*")):
                if p.suffix in SOURCE_SUFFIXES and p.is_file():
                    yield p


def main():
    default = pathlib.Path(__file__).resolve().parent.parent
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else default
    texts = {
        p: strip_comments(p.read_text(encoding="utf-8", errors="replace"))
        for p in list(source_files(root, USER_DIRS)) +
        list(source_files(root, TEST_DIRS))
    }
    tests_root = root / "tests"
    print(f"{'class':<18} {'member':<28} {'users':>5} {'tests':>5}")
    unused = 0
    for label, header, impls, name in CLASSES:
        own = {(root / header).resolve()} | {(root / f).resolve()
                                             for f in impls}
        body = class_body(strip_comments(
            (root / header).read_text(encoding="utf-8")), name)
        for member in public_functions(body, name):
            pat = re.compile(r"(?:\.|->)\s*" + member + r"\s*[(<]")
            users = tests = 0
            for p, text in texts.items():
                if p.resolve() in own or not pat.search(text):
                    continue
                if tests_root in p.parents:
                    tests += 1
                else:
                    users += 1
            flag = "  <- tests only" if users == 0 and tests else (
                "  <- unused" if users == 0 else "")
            unused += flag == "  <- unused"
            print(f"{label:<18} {member:<28} {users:>5} {tests:>5}{flag}")
    if unused:
        print(f"api_audit: {unused} public member(s) with no caller",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
