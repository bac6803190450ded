#!/usr/bin/env python3
"""Project-specific lint for the tpm codebase.

Enforces invariants generic tools can't (see docs/STATIC_ANALYSIS.md):

  metrics   every metric name used in src/, tools/, bench/ must appear in the
            registry (src/obs/metric_names.h), and every non-dynamic registry
            entry must have at least one call site — a typo'd counter name
            would otherwise silently record (or read) nothing.
  faults    fault sites must be consistent across the canonical list in
            src/util/fault.cc, the call sites (TPM_FAULT_POINT / IoFaultPoint /
            MinerFaultPoint), and docs/ROBUSTNESS.md. (`tpm faults` prints the
            canonical list directly, so it cannot drift separately.)
  headers   every header is self-contained: `#pragma once`, and no <iostream>
            anywhere in src/ library code (headers or .cc) — stream state and
            static-init-order surprises stay confined to tools/tests/benches.
  locking   Tier D concurrency hygiene (docs/STATIC_ANALYSIS.md): src/ uses
            tpm::Mutex/MutexLock (src/util/sync.h), never raw std::mutex or
            std::lock_guard, so every lock carries thread-safety capability
            annotations and the leaf-lock check; mutable statics must be
            std::atomic, thread_local, or allowlisted in tools/lint/locking_allowlist.txt with a reason;
            in a class that owns a Mutex, every other data member must be
            TPM_GUARDED_BY, std::atomic, const, or allowlisted.
  determinism  Tier E (docs/STATIC_ANALYSIS.md): no range-iteration over
            std::unordered_{map,set,multimap,multiset} in src/ — hash order
            is nondeterministic across runs, libraries, and platforms, so
            any fold over it poisons emit/merge/serialize paths (the
            parallel-miner byte-identical contract). Sort into a vector
            first, restructure to avoid iterating, or allowlist the variable
            in tools/lint/determinism_allowlist.txt with a sorted-fold
            justification. Pointer-keyed ordered containers, std::less over
            pointers, and operator< over pointers are banned outright:
            they order by allocation address, which ASLR re-rolls each run.
  format    whitespace rules checkable without clang-format: no trailing
            whitespace, no tabs in C++ sources, no CRLF, final newline.
  fuzz-surface  Tier F (docs/STATIC_ANALYSIS.md): every Parse*/Read*/Load*
            entry point declared in src/io/ headers must be registered to a
            fuzz harness in tools/fuzz/surfaces.txt (`<EntryPoint> <harness>
            # reason` lines); stale entries, unknown harnesses, and
            reasonless lines are findings, so no codec ships unfuzzed and
            the registry cannot rot.

Exit code 0 when clean, 1 with one `file:line: [check] message` per finding.

`--self-test` plants one violation of each class in a scratch copy and checks
every one is caught (used by the `lint_selftest` ctest).
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

CXX_EXTENSIONS = (".cc", ".h", ".cpp")

# Files whose metric-name literals are checked against the registry. Tests
# are excluded: they exercise the registry machinery with ad-hoc names.
METRIC_SCAN_DIRS = ("src", "tools", "bench")
METRIC_CALL_RE = re.compile(
    r"(?:GetCounter|GetGauge|GetHistogram|CounterValue|FindCounter|FindGauge"
    r"|FindHistogram|FindMetric)\(\s*\"([^\"]+)\"")
REGISTRY_PATH = os.path.join("src", "obs", "metric_names.h")
REGISTRY_ENTRY_RE = re.compile(r"^\s*\"([^\"]+)\",\s*(//\s*dynamic\b.*)?$")

FAULT_LIST_PATH = os.path.join("src", "util", "fault.cc")
FAULT_DOC_PATH = os.path.join("docs", "ROBUSTNESS.md")
FAULT_POINT_RE = re.compile(
    r"(?:TPM_FAULT_POINT|IoFaultPoint|MinerFaultPoint|ScopedFault)\(\s*\"([^\"]+)\"")


def iter_files(root, subdirs, extensions):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, names in sorted(os.walk(base)):
            for name in sorted(names):
                if name.endswith(extensions):
                    yield os.path.join(dirpath, name)


def relpath(root, path):
    return os.path.relpath(path, root)


class Findings:
    def __init__(self):
        self.items = []

    def add(self, check, path, line, message):
        self.items.append((check, path, line, message))

    def report(self):
        for check, path, line, message in self.items:
            where = f"{path}:{line}" if line else path
            print(f"{where}: [{check}] {message}")
        return 1 if self.items else 0


# --------------------------------------------------------------------------
# metrics: call-site names <-> registry header
# --------------------------------------------------------------------------

def parse_metric_registry(root, findings):
    """Returns (all_names, dynamic_names) from the registry header."""
    path = os.path.join(root, REGISTRY_PATH)
    names, dynamic = set(), set()
    try:
        text = open(path, encoding="utf-8").read()
    except OSError:
        findings.add("metrics", REGISTRY_PATH, 0, "registry header missing")
        return names, dynamic
    in_table = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if "lint: metric-registry-begin" in line:
            in_table = True
            continue
        if "lint: metric-registry-end" in line:
            in_table = False
            continue
        if not in_table:
            continue
        m = REGISTRY_ENTRY_RE.match(line)
        if not m:
            continue
        name = m.group(1)
        if name in names:
            findings.add("metrics", REGISTRY_PATH, lineno,
                         f"duplicate registry entry '{name}'")
        names.add(name)
        if m.group(2):
            dynamic.add(name)
    if not names:
        findings.add("metrics", REGISTRY_PATH, 0,
                     "no entries between the lint markers")
    return names, dynamic


def check_metrics(root, findings):
    registered, dynamic = parse_metric_registry(root, findings)
    used = {}
    for path in iter_files(root, METRIC_SCAN_DIRS, CXX_EXTENSIONS):
        rel = relpath(root, path)
        if rel == REGISTRY_PATH:
            continue
        for lineno, line in enumerate(open(path, encoding="utf-8"), 1):
            for m in METRIC_CALL_RE.finditer(line):
                name = m.group(1)
                used.setdefault(name, (rel, lineno))
                if name not in registered:
                    findings.add(
                        "metrics", rel, lineno,
                        f"metric name '{name}' is not in {REGISTRY_PATH}; "
                        "typo, or add it to the registry")
    for name in sorted(registered - set(used) - dynamic):
        findings.add(
            "metrics", REGISTRY_PATH, 0,
            f"registry entry '{name}' has no call site in "
            f"{'/'.join(METRIC_SCAN_DIRS)} — dead entry, or tag it `// dynamic`")


# --------------------------------------------------------------------------
# faults: canonical list <-> call sites <-> docs
# --------------------------------------------------------------------------

def parse_fault_sites(root, findings):
    """Extracts the canonical site list from the kSites table in fault.cc."""
    path = os.path.join(root, FAULT_LIST_PATH)
    sites = {}
    try:
        text = open(path, encoding="utf-8").read()
    except OSError:
        findings.add("faults", FAULT_LIST_PATH, 0, "canonical site list missing")
        return sites
    m = re.search(r"kSites\[\]\s*=\s*\{(.*?)\};", text, re.DOTALL)
    if not m:
        findings.add("faults", FAULT_LIST_PATH, 0,
                     "could not locate the kSites table")
        return sites
    offset = text[:m.start()].count("\n")
    for i, line in enumerate(m.group(1).splitlines()):
        entry = re.search(r"\"([^\"]+)\"", line)
        if entry:
            sites[entry.group(1)] = offset + i + 1
    return sites


def check_faults(root, findings):
    sites = parse_fault_sites(root, findings)
    used = {}
    for path in iter_files(root, ("src", "tools"), CXX_EXTENSIONS):
        rel = relpath(root, path)
        for lineno, line in enumerate(open(path, encoding="utf-8"), 1):
            for m in FAULT_POINT_RE.finditer(line):
                site = m.group(1)
                used.setdefault(site, (rel, lineno))
                if site not in sites:
                    findings.add(
                        "faults", rel, lineno,
                        f"fault site '{site}' is not registered in "
                        f"{FAULT_LIST_PATH}; it would never fire")
    for site in sorted(set(sites) - set(used)):
        findings.add(
            "faults", FAULT_LIST_PATH, sites[site],
            f"registered fault site '{site}' has no injection point in "
            "src/ or tools/")
    try:
        doc = open(os.path.join(root, FAULT_DOC_PATH), encoding="utf-8").read()
    except OSError:
        findings.add("faults", FAULT_DOC_PATH, 0, "robustness doc missing")
        return
    for site in sorted(sites):
        if f"`{site}`" not in doc and f"{site}:" not in doc:
            findings.add(
                "faults", FAULT_DOC_PATH, 0,
                f"fault site '{site}' is not documented (expected `{site}`)")


# --------------------------------------------------------------------------
# headers: self-containment and stream hygiene
# --------------------------------------------------------------------------

def check_headers(root, findings):
    for path in iter_files(root, ("src", "tools", "bench", "tests"), (".h",)):
        rel = relpath(root, path)
        text = open(path, encoding="utf-8").read()
        if "#pragma once" not in text:
            findings.add("headers", rel, 1, "missing #pragma once")
    for path in iter_files(root, ("src",), CXX_EXTENSIONS):
        rel = relpath(root, path)
        for lineno, line in enumerate(open(path, encoding="utf-8"), 1):
            if re.match(r"\s*#\s*include\s*<iostream>", line):
                findings.add(
                    "headers", rel, lineno,
                    "<iostream> in library code; use <ostream>/<iosfwd> and "
                    "keep concrete streams in tools/tests/benches")


def check_header_compiles(root, findings, compiler="g++"):
    """Optional deep self-containment check: each src/ header must compile
    alone. Run by the `lint` CMake target, not the quick ctest."""
    for path in iter_files(root, ("src",), (".h",)):
        rel = relpath(root, path)
        probe = f'#include "{os.path.relpath(path, os.path.join(root, "src"))}"\n'
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".cc", delete=False) as tmp:
            tmp.write(probe)
            probe_path = tmp.name
        try:
            result = subprocess.run(
                [compiler, "-std=c++20", "-fsyntax-only",
                 "-I", os.path.join(root, "src"), probe_path],
                capture_output=True, text=True)
            if result.returncode != 0:
                findings.add("headers", rel, 1,
                             "not self-contained: " +
                             result.stderr.strip().splitlines()[0])
        finally:
            os.unlink(probe_path)


# --------------------------------------------------------------------------
# locking: Tier D concurrency hygiene (see docs/STATIC_ANALYSIS.md)
# --------------------------------------------------------------------------

LOCKING_ALLOWLIST_PATH = os.path.join("tools", "lint", "locking_allowlist.txt")
SYNC_HEADER = os.path.join("src", "util", "sync.h")

# Raw standard-library lock primitives carry no capability annotations, so
# Clang's thread-safety analysis cannot see them. util/sync.h wraps them.
RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex)>")

STATIC_DECL_RE = re.compile(r"^\s*static\s+(.+)$")
MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(.+?)\s+([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?"
    r"\s*(?:=.*|\{.*\})?$", re.DOTALL)
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:TPM_\w+\((?:[^()]|\([^()]*\))*\)\s+)?"
    r"([A-Za-z_]\w*)")
ANNOTATION_RE = re.compile(r"TPM_\w+\((?:[^()]|\([^()]*\))*\)")
MEMBER_SKIP_PREFIXES = ("public", "private", "protected", "struct ", "class ",
                        "enum ", "union ", "template", "using ", "typedef ",
                        "friend ", "static ", "#")


def strip_line_comment(line):
    return line.split("//", 1)[0]


def load_reasoned_allowlist(root, rel_path, check, findings):
    """Returns {key: lineno} from a `path:identifier  # reason` allowlist;
    reasonless and duplicate entries are findings, so the list cannot rot."""
    path = os.path.join(root, rel_path)
    entries = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError:
        return entries  # empty allowlist is fine; nothing is exempt
    for lineno, line in enumerate(lines, 1):
        entry, _, reason = line.partition("#")
        entry = entry.strip()
        if not entry:
            continue
        if not reason.strip():
            findings.add(check, rel_path, lineno,
                         f"allowlist entry '{entry}' has no `# reason` comment")
        if entry in entries:
            findings.add(check, rel_path, lineno,
                         f"duplicate allowlist entry '{entry}'")
        entries[entry] = lineno
    return entries


def load_locking_allowlist(root, findings):
    return load_reasoned_allowlist(root, LOCKING_ALLOWLIST_PATH, "locking",
                                   findings)


def blank_nested_braces(body):
    """Replaces everything inside nested {...} regions with spaces (newlines
    kept), leaving only the class's own declarations visible."""
    out = []
    depth = 0
    for ch in body:
        if ch == "{":
            depth += 1
            out.append(" ")
        elif ch == "}":
            depth -= 1
            # Close of a nested region ends the statement, so an inline
            # function body doesn't glue onto the next member declaration.
            out.append(";" if depth == 0 else " ")
        elif depth > 0 and ch != "\n":
            out.append(" ")
        else:
            out.append(ch)
    return "".join(out)


def iter_class_bodies(text):
    """Yields (class_name, body_start_line, depth1_body) for every class or
    struct definition, including nested ones (each seen independently)."""
    for m in CLASS_HEAD_RE.finditer(text):
        pos = m.end()
        # Find the opening brace; a `;` or `(` first means forward
        # declaration or constructor-ish false positive.
        while pos < len(text) and text[pos] not in "{;(":
            pos += 1
        if pos >= len(text) or text[pos] != "{":
            continue
        depth = 0
        end = pos
        while end < len(text):
            if text[end] == "{":
                depth += 1
            elif text[end] == "}":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        body = text[pos + 1:end]
        yield (m.group(1), text[:pos + 1].count("\n") + 1,
               blank_nested_braces(body))


def iter_statements(body, start_line):
    """Splits a depth-1 class body into `;`-terminated statements, yielding
    (lineno_of_first_token, statement_text)."""
    line = start_line
    stmt, stmt_line = [], None
    for ch in body:
        if ch == "\n":
            line += 1
        if ch == ";":
            yield (stmt_line if stmt_line is not None else line,
                   "".join(stmt).strip())
            stmt, stmt_line = [], None
            continue
        stmt.append(ch)
        if stmt_line is None and not ch.isspace():
            stmt_line = line


def check_locking_members(rel, class_name, start_line, body, allow,
                          used_allow, findings):
    statements = []
    mutex_members = set()
    for lineno, raw in iter_statements(body, start_line):
        stmt = " ".join(strip_line_comment(part)
                        for part in raw.splitlines()).strip()
        # Drop access labels glued to the statement by the `;` split.
        stmt = re.sub(r"^(?:public|private|protected)\s*:\s*", "", stmt)
        statements.append((lineno, stmt))
        m = re.match(r"^(?:mutable\s+)?Mutex\s+(\w+)$", stmt)
        if m:
            mutex_members.add(m.group(1))
    if not mutex_members:
        return
    for lineno, stmt in statements:
        if not stmt or stmt.startswith(MEMBER_SKIP_PREFIXES):
            continue
        guarded = "TPM_GUARDED_BY" in stmt
        stmt = ANNOTATION_RE.sub("", stmt).strip()
        if not stmt or "(" in stmt:  # functions, ctors, deleted ops
            continue
        m = MEMBER_RE.match(stmt)
        if not m:
            continue
        type_str, name = m.group(1), m.group(2)
        if name in mutex_members or guarded:
            continue
        if ("std::atomic" in type_str or "constexpr" in type_str or
                re.search(r"\bconst\b", type_str)):
            continue
        key = f"{rel}:{class_name}::{name}"
        if key in allow:
            used_allow.add(key)
            continue
        findings.add(
            "locking", rel, lineno,
            f"member '{class_name}::{name}' of a Mutex-owning class is not "
            "TPM_GUARDED_BY, std::atomic, or const; annotate it (or allowlist "
            f"it in {LOCKING_ALLOWLIST_PATH} with a reason)")


def check_locking_statics(rel, lines, allow, used_allow, findings):
    for lineno, line in enumerate(lines, 1):
        code = strip_line_comment(line)
        m = STATIC_DECL_RE.match(code)
        if not m:
            continue
        decl = m.group(1)
        if (re.match(r"(?:const|constexpr|thread_local)\b", decl) or
                "std::atomic" in decl or "thread_local" in decl):
            continue
        # A `(` before any `=`/`;`/`{` means a function declaration.
        head = re.split(r"[=;{]", decl, 1)[0]
        if "(" in head:
            continue
        tokens = re.findall(r"[A-Za-z_]\w*", head)
        if len(tokens) < 2:  # `static` + type only: not a variable decl
            continue
        name = tokens[-1]
        key = f"{rel}:{name}"
        if key in allow:
            used_allow.add(key)
            continue
        findings.add(
            "locking", rel, lineno,
            f"mutable static '{name}' is not std::atomic, thread_local, or "
            f"const; make it one of those (or allowlist it in "
            f"{LOCKING_ALLOWLIST_PATH} with a reason)")


def check_locking(root, findings):
    allow = load_locking_allowlist(root, findings)
    used_allow = set()
    for path in iter_files(root, ("src",), CXX_EXTENSIONS):
        rel = relpath(root, path)
        text = open(path, encoding="utf-8").read()
        lines = text.splitlines()
        if rel != SYNC_HEADER:
            for lineno, line in enumerate(lines, 1):
                m = RAW_MUTEX_RE.search(strip_line_comment(line))
                if m:
                    findings.add(
                        "locking", rel, lineno,
                        f"raw '{m.group(0)}' carries no thread-safety "
                        "annotations; use tpm::Mutex / tpm::MutexLock from "
                        f"{SYNC_HEADER}")
        check_locking_statics(rel, lines, allow, used_allow, findings)
        for class_name, start_line, body in iter_class_bodies(text):
            check_locking_members(rel, class_name, start_line, body, allow,
                                  used_allow, findings)
    for key in sorted(set(allow) - used_allow):
        findings.add("locking", LOCKING_ALLOWLIST_PATH, allow[key],
                     f"allowlist entry '{key}' matches nothing; remove it")


# --------------------------------------------------------------------------
# determinism: no nondeterministically-ordered folds (Tier E)
# --------------------------------------------------------------------------

DETERMINISM_ALLOWLIST_PATH = os.path.join("tools", "lint",
                                          "determinism_allowlist.txt")
UNORDERED_TYPE_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<")
# Range-for headers only: a classic for(;;) contains semicolons and is
# excluded, and range expressions with calls/parens name temporaries, not
# the tracked variables.
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*):([^;()]*)\)")
PTR_KEY_RE = re.compile(
    r"std::(?:map|set|multimap|multiset)<\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*")
PTR_LESS_RE = re.compile(r"std::less<\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*")
PTR_CMP_RE = re.compile(
    r"\boperator<\s*\(\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*")


def unordered_decl_names(text):
    """Names declared with a std::unordered_* type anywhere in `text`
    (locals, members, parameters): the identifier right after the closing
    template bracket, skipping cv/ref/pointer tokens. An identifier followed
    by `(` is a function returning the container, not a variable."""
    names = set()
    for m in UNORDERED_TYPE_RE.finditer(text):
        i = m.end()
        depth = 1
        while i < len(text) and depth:
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
            i += 1
        dm = re.match(r"\s*[&*]*\s*(?:const\s+)?([A-Za-z_]\w*)\s*(\S)?",
                      text[i:], re.DOTALL)
        if dm and dm.group(2) != "(":
            names.add(dm.group(1))
    return names


def check_determinism(root, findings):
    allow = load_reasoned_allowlist(root, DETERMINISM_ALLOWLIST_PATH,
                                    "determinism", findings)
    used_allow = set()
    for path in iter_files(root, ("src",), CXX_EXTENSIONS):
        rel = relpath(root, path)
        code_lines = [strip_line_comment(l)
                      for l in open(path, encoding="utf-8").read().splitlines()]
        unordered = unordered_decl_names("\n".join(code_lines))
        for lineno, line in enumerate(code_lines, 1):
            for fm in RANGE_FOR_RE.finditer(line):
                ids = re.findall(r"[A-Za-z_]\w*", fm.group(2))
                if not ids or ids[-1] not in unordered:
                    continue
                name = ids[-1]
                key = f"{rel}:{name}"
                if key in allow:
                    used_allow.add(key)
                    continue
                findings.add(
                    "determinism", rel, lineno,
                    f"range-iteration over unordered container '{name}': "
                    "hash order is nondeterministic, so any "
                    "emit/merge/serialize fold over it is too; sort into a "
                    "vector first, restructure to avoid iterating, or "
                    f"allowlist '{key}' in {DETERMINISM_ALLOWLIST_PATH} with "
                    "a sorted-fold justification")
            pm = PTR_KEY_RE.search(line)
            if pm:
                findings.add(
                    "determinism", rel, lineno,
                    f"pointer-keyed ordered container '{pm.group(0)}…>': "
                    "iteration order follows allocation addresses, which "
                    "ASLR re-rolls every run; key by a stable id instead")
            lm = PTR_LESS_RE.search(line)
            if lm:
                findings.add(
                    "determinism", rel, lineno,
                    f"'{lm.group(0)}…>' orders by allocation address, which "
                    "ASLR re-rolls every run; compare stable ids or values "
                    "instead")
            cm = PTR_CMP_RE.search(line)
            if cm:
                findings.add(
                    "determinism", rel, lineno,
                    "operator< over raw pointers orders by allocation "
                    "address, which ASLR re-rolls every run; compare stable "
                    "ids or values instead")
    for key in sorted(set(allow) - used_allow):
        findings.add("determinism", DETERMINISM_ALLOWLIST_PATH, allow[key],
                     f"allowlist entry '{key}' matches nothing; remove it")


# --------------------------------------------------------------------------
# format: whitespace rules that need no clang-format
# --------------------------------------------------------------------------

FORMAT_SCAN = ("src", "tools", "bench", "tests", "examples", "docs", "cmake")


def check_format(root, findings):
    paths = list(iter_files(root, FORMAT_SCAN,
                            CXX_EXTENSIONS + (".py", ".md", ".cmake", ".txt")))
    for name in sorted(os.listdir(root)):
        if name.endswith((".md", ".txt")) and \
                os.path.isfile(os.path.join(root, name)):
            paths.append(os.path.join(root, name))
    for path in paths:
        rel = relpath(root, path)
        data = open(path, "rb").read()
        if b"\r\n" in data:
            findings.add("format", rel, 1, "CRLF line endings")
        if data and not data.endswith(b"\n"):
            findings.add("format", rel, data.count(b"\n") + 1,
                         "missing final newline")
        for lineno, line in enumerate(data.split(b"\n"), 1):
            if line != line.rstrip():
                findings.add("format", rel, lineno, "trailing whitespace")
            if rel.endswith(CXX_EXTENSIONS) and b"\t" in line:
                findings.add("format", rel, lineno, "tab in C++ source")


# --------------------------------------------------------------------------
# fuzz-surface: every src/io/ parser entry point has a registered harness
# --------------------------------------------------------------------------

FUZZ_SURFACES_PATH = os.path.join("tools", "fuzz", "surfaces.txt")
FUZZ_IO_HEADERS = os.path.join("src", "io")
# A public decode surface: a Result<...>- or Status-returning free function
# whose name starts with Parse/Read/Load (the naming convention src/io
# follows for anything that consumes untrusted bytes).
FUZZ_SURFACE_RE = re.compile(
    r"\b(?:Result<[^;{}]*>|Status)\s+((?:Parse|Read|Load)[A-Z]\w*)\s*\(")


def check_fuzz_surface(root, findings):
    allow = load_reasoned_allowlist(root, FUZZ_SURFACES_PATH, "fuzz-surface",
                                    findings)
    registered = {}  # surface name -> first registry line
    for key, lineno in allow.items():
        parts = key.split()
        if len(parts) != 2:
            findings.add("fuzz-surface", FUZZ_SURFACES_PATH, lineno,
                         f"malformed entry '{key}': want "
                         "'<EntryPoint> <harness>  # reason'")
            continue
        surface, harness = parts
        if not os.path.isfile(os.path.join(root, "fuzz", harness + ".cc")):
            findings.add("fuzz-surface", FUZZ_SURFACES_PATH, lineno,
                         f"entry '{surface}' names harness '{harness}' but "
                         f"fuzz/{harness}.cc does not exist")
        registered.setdefault(surface, lineno)

    declared = {}  # surface name -> "file:line" of the declaration
    for path in iter_files(root, (FUZZ_IO_HEADERS,), (".h",)):
        rel = relpath(root, path)
        lines = open(path, encoding="utf-8").read().splitlines()
        for lineno, line in enumerate(lines, 1):
            m = FUZZ_SURFACE_RE.search(strip_line_comment(line))
            if m:
                declared.setdefault(m.group(1), f"{rel}:{lineno}")
    for surface in sorted(set(declared) - set(registered)):
        rel, _, lineno = declared[surface].rpartition(":")
        findings.add(
            "fuzz-surface", rel, int(lineno),
            f"entry point '{surface}' has no fuzz harness registered in "
            f"{FUZZ_SURFACES_PATH}; add '<{surface}> <fuzz_harness>  "
            "# reason' (and a harness under fuzz/ if none covers it)")
    for surface in sorted(set(registered) - set(declared)):
        findings.add(
            "fuzz-surface", FUZZ_SURFACES_PATH, registered[surface],
            f"stale entry '{surface}': no such entry point is declared in "
            f"{FUZZ_IO_HEADERS} headers; remove the line")


CHECKS = {
    "metrics": check_metrics,
    "faults": check_faults,
    "headers": check_headers,
    "locking": check_locking,
    "determinism": check_determinism,
    "format": check_format,
    "fuzz-surface": check_fuzz_surface,
}


def run_checks(root, only=None, compile_headers=False):
    findings = Findings()
    for name, check in CHECKS.items():
        if only and name not in only:
            continue
        check(root, findings)
    if compile_headers and (not only or "headers" in only):
        check_header_compiles(root, findings)
    return findings


# --------------------------------------------------------------------------
# self-test: plant one violation per class, assert each is caught
# --------------------------------------------------------------------------

def self_test(root):
    failures = []

    def expect(label, planted_root, check, needle):
        findings = run_checks(planted_root, only=[check])
        hits = [f for f in findings.items if needle in f[3] or needle in f[1]]
        if not hits:
            failures.append(f"{label}: linter missed the planted violation")

    def plant(label, mutate, check, needle):
        scratch = tempfile.mkdtemp(prefix="tpm-lint-selftest-")
        try:
            for sub in ("src", "tools", "bench", "tests", "docs", "cmake",
                        "examples", "fuzz"):
                src = os.path.join(root, sub)
                if os.path.isdir(src):
                    shutil.copytree(src, os.path.join(scratch, sub))
            mutate(scratch)
            expect(label, scratch, check, needle)
        finally:
            shutil.rmtree(scratch)

    # Clean tree first: every check must pass on the real repo.
    clean = run_checks(root)
    if clean.items:
        clean.report()
        print("self-test: repository is not clean; fix the findings above")
        return 1

    def typo_counter(scratch):
        path = os.path.join(scratch, "src", "io", "loader.cc")
        text = open(path).read().replace(
            'GetCounter("io.load.calls"', 'GetCounter("io.load.callz"', 1)
        open(path, "w").write(text)

    plant("typo'd counter name", typo_counter, "metrics", "io.load.callz")

    def drift_fault_site(scratch):
        path = os.path.join(scratch, "src", "io", "atomic_write.cc")
        text = open(path).read().replace(
            'IoFaultPoint("io.fsync")', 'IoFaultPoint("io.fsyncc")', 1)
        open(path, "w").write(text)

    plant("drifted fault site", drift_fault_site, "faults", "io.fsyncc")

    def undocumented_fault_site(scratch):
        path = os.path.join(scratch, "docs", "ROBUSTNESS.md")
        text = open(path).read().replace("`io.rename`", "`io.renamed`")
        text = text.replace("io.rename:", "io.renamed:")
        open(path, "w").write(text)

    plant("undocumented fault site", undocumented_fault_site, "faults",
          "io.rename")

    def strip_pragma(scratch):
        path = os.path.join(scratch, "src", "core", "types.h")
        text = open(path).read().replace("#pragma once", "")
        open(path, "w").write(text)

    plant("header without #pragma once", strip_pragma, "headers",
          "missing #pragma once")

    def add_iostream(scratch):
        path = os.path.join(scratch, "src", "core", "interval.h")
        text = open(path).read().replace(
            "#include <string>", "#include <iostream>\n#include <string>", 1)
        open(path, "w").write(text)

    plant("<iostream> in library code", add_iostream, "headers", "<iostream>")

    def trailing_ws(scratch):
        path = os.path.join(scratch, "src", "core", "types.h")
        with open(path, "a") as f:
            f.write("// drift   \n")

    plant("formatting drift", trailing_ws, "format", "trailing whitespace")

    def dead_registry_entry(scratch):
        path = os.path.join(scratch, "src", "obs", "metric_names.h")
        text = open(path).read().replace(
            '    "cooc.frequent_symbols",',
            '    "cooc.frequent_symbols",\n    "zzz.never_used",', 1)
        open(path, "w").write(text)

    plant("dead registry entry", dead_registry_entry, "metrics",
          "zzz.never_used")

    def typo_domain_counter(scratch):
        path = os.path.join(scratch, "src", "obs", "progress.cc")
        text = open(path).read().replace(
            'GetCounter("progress.snapshots"',
            'GetCounter("progress.snapshotz"', 1)
        open(path, "w").write(text)

    plant("typo'd StatsDomain-charged counter", typo_domain_counter,
          "metrics", "progress.snapshotz")

    def unguarded_static(scratch):
        path = os.path.join(scratch, "src", "core", "types.h")
        with open(path, "a") as f:
            f.write("static int g_unguarded_total = 0;\n")

    plant("mutable static without atomic/guard", unguarded_static, "locking",
          "g_unguarded_total")

    def unordered_fold(scratch):
        path = os.path.join(scratch, "src", "core", "pattern.cc")
        with open(path, "a") as f:
            f.write("\nstatic int SumOpenz("
                    "const std::unordered_map<int, int>& openz) {\n"
                    "  int total = 0;\n"
                    "  for (const auto& kv : openz) total += kv.second;\n"
                    "  return total;\n"
                    "}\n")

    plant("range-iteration over unordered container", unordered_fold,
          "determinism", "openz")

    def pointer_keyed_map(scratch):
        path = os.path.join(scratch, "src", "core", "types.h")
        with open(path, "a") as f:
            f.write("using BadIntervalIndex = std::map<const Interval*, int>;\n")

    plant("pointer-keyed ordered container", pointer_keyed_map, "determinism",
          "pointer-keyed")

    def pointer_less(scratch):
        path = os.path.join(scratch, "src", "core", "types.h")
        with open(path, "a") as f:
            f.write("using BadOrder = std::less<const Interval*>;\n")

    plant("std::less over raw pointers", pointer_less, "determinism",
          "std::less")

    def pointer_compare(scratch):
        path = os.path.join(scratch, "src", "core", "types.h")
        with open(path, "a") as f:
            f.write("bool operator<(const Interval* a, const Interval* b);\n")

    plant("operator< over raw pointers", pointer_compare, "determinism",
          "operator< over raw pointers")

    def unregistered_surface(scratch):
        path = os.path.join(scratch, "src", "io", "binary_format.h")
        with open(path, "a") as f:
            f.write("namespace tpm { Result<IntervalDatabase> "
                    "ParseEvilBuffer(const std::string& buffer); }\n")

    plant("parser entry point without a fuzz harness", unregistered_surface,
          "fuzz-surface", "ParseEvilBuffer")

    def stale_surface_entry(scratch):
        path = os.path.join(scratch, "tools", "fuzz", "surfaces.txt")
        with open(path, "a") as f:
            f.write("ParseNothing fuzz_json  # decoder removed long ago\n")

    plant("stale fuzz-surface registry entry", stale_surface_entry,
          "fuzz-surface", "ParseNothing")

    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return 1
    print("lint self-test OK: 15 planted violations, 15 caught, clean tree clean")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--only", action="append", choices=sorted(CHECKS),
                        help="run only these checks (repeatable)")
    parser.add_argument("--compile-headers", action="store_true",
                        help="also compile every src/ header standalone")
    parser.add_argument("--self-test", action="store_true",
                        help="plant violations in a scratch copy and verify "
                             "each is caught")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if args.self_test:
        return self_test(root)
    findings = run_checks(root, only=args.only,
                          compile_headers=args.compile_headers)
    code = findings.report()
    if code == 0:
        ran = ", ".join(args.only) if args.only else ", ".join(sorted(CHECKS))
        print(f"project lint OK ({ran})")
    return code


if __name__ == "__main__":
    sys.exit(main())
