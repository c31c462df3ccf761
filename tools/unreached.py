#!/usr/bin/env python3
"""Lists the farm's functions that no program keeps, and checks the allowlist.

    python3 tools/unreached.py

Builds, into .unreached_build/, every executable under examples/, bench/
and tools/, plus perfbench's farm_bench (configured from perfbench/ as it
stands), at -O0 with -fno-inline -fkeep-inline-functions -ffunction-sections
and linked with --gc-sections. Every inline function is then emitted out of line, and the
linker keeps only what a program can reach. A global (T or W) function in
namespace potemkin that the src/ or bench/report archives define and that no
program keeps is reached by tests alone, or by nothing.

Constructors, destructors, assignment operators and lambdas are not listed:
the compiler emits them for types that a program uses whole. Nor are the
instantiations of the log streams' operator<<: there is one for each type of
value a caller streams into a message, such as each length of string literal.

tools/unreached_allowlist.txt names the functions that may stay unreached,
one a line: the gtest that needs it (Suite.Name), then the demangled name
exactly as `nm -C` prints it. Exit status:

  0  every unreached function is on the allowlist, and every entry is still
     unreached and names an existing test
  1  an unreached function is not on the allowlist, or an entry is reached
     by a program, no longer exists, or names no such test
  2  the build failed

The tool checks that each entry's test exists, not that the test needs the
function: a reviewer checks that when an entry is added.
"""

import glob
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALLOWLIST = os.path.join(HERE, "unreached_allowlist.txt")
BUILD_DIR = os.path.join(ROOT, ".unreached_build")
PROGRAM_DIRS = ("examples", "bench", "tools")
ARCHIVE_DIRS = ("src", "bench")
CXXFLAGS = "-O0 -fno-inline -fkeep-inline-functions -ffunction-sections"
LDFLAGS = "-Wl,--gc-sections"
NM_LINE = re.compile(r"^[0-9a-fA-F]*\s+([A-Za-z])\s+(\S+)$")
# A function (or member function) declared in namespace potemkin. Matched on
# the mangled name: the demangled one of a template function starts with its
# return type, so std::forward<potemkin::X> would look like a potemkin one.
POTEMKIN = re.compile(r"^_ZN[KVRO]*8potemkin")
# An instantiation of LogStream's or FatalStream's operator<< template.
LOG_INSERTER = re.compile(
    r"^potemkin::(Log|Fatal)Stream& potemkin::\1Stream::operator<< <")
TEST_DECL = re.compile(r"\bTEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)")


def configure_and_build(source, build, wanted):
    """Configures `source` into `build` and builds the targets `wanted` picks.

    Returns the build's targets from the CMake file API as
    (name, type, source dir relative to `source`, artifact paths).
    """
    query = os.path.join(build, ".cmake", "api", "v1", "query")
    os.makedirs(query, exist_ok=True)
    open(os.path.join(query, "codemodel-v2"), "w").close()
    subprocess.run(
        ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=", "-DCMAKE_CXX_FLAGS=" + CXXFLAGS,
         "-DCMAKE_EXE_LINKER_FLAGS=" + LDFLAGS],
        check=True, stdout=subprocess.DEVNULL)
    model = read_codemodel(build)
    names = [t[0] for t in model if wanted(t)]
    subprocess.run(["cmake", "--build", build, "-j", str(os.cpu_count() or 1),
                    "--target"] + names, check=True, stdout=subprocess.DEVNULL)
    return model


def read_codemodel(build):
    reply = os.path.join(build, ".cmake", "api", "v1", "reply")
    index = sorted(glob.glob(os.path.join(reply, "index-*.json")))[-1]
    with open(index) as f:
        codemodel = json.load(f)["reply"]["codemodel-v2"]["jsonFile"]
    with open(os.path.join(reply, codemodel)) as f:
        config = json.load(f)["configurations"][0]
    model = []
    for ref in config["targets"]:
        with open(os.path.join(reply, ref["jsonFile"])) as f:
            target = json.load(f)
        artifacts = [os.path.join(build, a["path"]) for a in target.get("artifacts", [])]
        model.append((target["name"], target["type"], target["paths"]["source"], artifacts))
    return model


def is_program(target):
    return target[1] == "EXECUTABLE" and target[2].split("/")[0] in PROGRAM_DIRS


def is_farm_bench(target):
    return target[0] == "farm_bench"


def nm(path):
    """Yields (type letter, mangled name) for each symbol `path` defines."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        m = NM_LINE.match(line)
        if m:
            yield m.group(1), m.group(2)


def demangle(names):
    """Maps each mangled name to its demangled form, as `nm -C` prints it."""
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n", check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return dict(zip(names, out))


def strip_templates(name):
    """Drops every <...> argument list from one name component."""
    out, depth = [], 0
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def qualified_name(symbol):
    """The function's qualified name, without its parameter list."""
    op = symbol.find("::operator")
    if op >= 0:
        rest = symbol[op + 2:]
        name = "operator()" if rest.startswith("operator()") else rest.split("(")[0]
        return symbol[:op + 2] + name
    depth = 0
    for i, ch in enumerate(symbol):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            return symbol[:i]
    return symbol


def components(qualified):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(qualified):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0 and qualified.startswith("::", i):
            parts.append(qualified[start:i])
            start = i + 2
    parts.append(qualified[start:])
    return parts


def is_special_or_lambda(symbol):
    if "{lambda(" in symbol or LOG_INSERTER.match(symbol):
        return True
    parts = components(qualified_name(symbol))
    last = parts[-1]
    if last.startswith("~") or last == "operator=":
        return True
    return len(parts) >= 2 and strip_templates(last) == strip_templates(parts[-2])


def read_allowlist():
    entries = {}
    with open(ALLOWLIST) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            test, _, symbol = line.partition(" ")
            entries[symbol.strip()] = (test, lineno)
    return entries


def test_names():
    """Every gtest's Suite.Name under tests/."""
    names = set()
    for path in glob.glob(os.path.join(ROOT, "tests", "**", "*.cc"), recursive=True):
        with open(path) as f:
            names.update(f"{suite}.{name}" for suite, name in TEST_DECL.findall(f.read()))
    return names


def main():
    try:
        model = configure_and_build(ROOT, os.path.join(BUILD_DIR, "farm"), is_program)
        perfbench = configure_and_build(os.path.join(ROOT, "perfbench"),
                                        os.path.join(BUILD_DIR, "perfbench"),
                                        is_farm_bench)
    except subprocess.CalledProcessError as e:
        print(f"unreached: build failed: {' '.join(e.cmd)}", file=sys.stderr)
        return 2

    programs = [a for t in model if is_program(t) for a in t[3]]
    programs += [a for t in perfbench if is_farm_bench(t) for a in t[3]]
    archives = [a for t in model
                if t[1] == "STATIC_LIBRARY" and t[2].split("/")[0] in ARCHIVE_DIRS
                for a in t[3]]

    kept = set()
    for program in programs:
        kept.update(name for kind, name in nm(program) if kind in "TtWw")
    mangled = set()
    for archive in archives:
        mangled.update(name for kind, name in nm(archive)
                       if kind in "TW" and POTEMKIN.match(name))
    names = demangle(mangled)
    defined = {names[m] for m in mangled if not is_special_or_lambda(names[m])}
    unreached = {names[m] for m in mangled - kept} & defined

    allow = read_allowlist()
    tests = test_names()
    problems = []
    for symbol in sorted(unreached - allow.keys()):
        problems.append(f"no program reaches, and the allowlist does not name: {symbol}")
    for symbol, (test, lineno) in sorted(allow.items(), key=lambda e: e[1][1]):
        where = f"unreached_allowlist.txt:{lineno}"
        if symbol not in defined:
            problems.append(f"{where}: no longer exists: {symbol}")
        elif symbol not in unreached:
            problems.append(f"{where}: a program reaches it now: {symbol}")
        elif test not in tests:
            problems.append(f"{where}: names no test in tests/: {test}")
    print(f"unreached: {len(programs)} programs, {len(defined)} functions, "
          f"{len(unreached)} unreached, {len(allow)} allowed")
    for problem in problems:
        print(f"unreached: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
