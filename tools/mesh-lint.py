#!/usr/bin/env python3
"""mesh-lint — repo-specific static checks for Mesh's concurrency and
fork-safety contracts.

The Clang thread-safety analysis (-Werror=thread-safety, see
src/support/Annotations.h) proves lock discipline; this linter covers
the contracts that are NOT expressible as capabilities:

  atfork-unsafe-call   Nothing reachable from a pthread_atfork child
                       handler may allocate or call non-async-signal-
                       safe functions (stdio, fatalError's vsnprintf,
                       InternalHeap::makeNew, operator new). POSIX
                       permits only async-signal-safe calls in the
                       forked child of a multithreaded process; a
                       violation is a silent deadlock on somebody
                       else's malloc lock.
  shim-static-init     The interpose layer (src/interpose/) must not
                       define file-scope objects with non-trivial
                       constructors: the shim is live before static
                       initializers run (malloc during early libc
                       setup), so its state must be constant- or
                       zero-initialized PODs / __thread variables.
  tsan-supp-comments   Every suppression in tsan.supp must carry a
                       comment block explaining the benign mechanism
                       and naming the test that pins the mechanism
                       (so a suppression can never outlive the code
                       path it excuses).

Engine: a deliberately conservative text-level call-graph (comments and
string literals stripped, function bodies matched by brace balance,
edges keyed on unqualified names — over-approximate by construction, so
name collisions can only ADD paths, never hide one). An optional
libclang engine (--engine=clang) refines the call graph when the
python clang bindings are importable; the text engine is the default
and the one CI runs, so results never depend on host packages.

Suppressions:
  - inline:  append  "// mesh-lint: allow(<rule>)"  to the flagged line
  - global:  add     "<rule> <substring>"           to tools/mesh-lint.allow
Both forms are audited output in --verbose mode; an allow entry that no
longer matches anything is itself reported (stale-suppression check).

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ----------------------------------------------------------------------------
# Rule configuration
# ----------------------------------------------------------------------------

# Call-graph roots for atfork-unsafe-call: the pthread_atfork child
# handler and everything it dispatches to (Runtime.cpp's child() walks
# the runtime registry calling these). Matched by unqualified name.
ATFORK_CHILD_ROOTS = [
    "child",                      # RuntimeForkSupport::child
    "reinitFenceModeAfterFork",   # Epoch
    "reinitializeArenaAfterFork", # GlobalHeap -> MeshableArena
    "resetDeferredAfterFork",     # MeshableArena
    "resetEpochAfterFork",        # GlobalHeap
    "resumeAfterForkChild",       # BackgroundMesher
    "fatalErrorForkSafe",         # the only permitted abort path here
]

# Bare (non-member) calls banned anywhere reachable from the roots.
# stdio: not async-signal-safe, may take libc-internal locks a dead
# parent thread owned. malloc family / operator new: same, plus the
# child's own arena is mid-rebuild. fatalError: its vsnprintf
# allocates on some libcs — fatalErrorForkSafe (pure write(2)) is the
# sanctioned replacement. logWarning: vfprintf underneath.
ATFORK_BANNED_BARE = {
    "printf", "fprintf", "vfprintf", "sprintf", "vsprintf", "snprintf",
    "vsnprintf", "puts", "fputs", "fputc", "putchar", "fwrite", "fread",
    "fflush", "fopen", "fclose", "perror", "fmtMessage",
    "malloc", "calloc", "realloc", "free", "posix_memalign",
    "aligned_alloc", "strdup", "asprintf", "vasprintf",
    "fatalError", "logWarning",
}

# Banned even as member calls (allocating helpers of our own).
ATFORK_BANNED_ANY = {"makeNew", "makeNewArray"}

# Non-trivially-constructible types that must never appear as
# file-scope objects in the interpose layer.
SHIM_NONTRIVIAL_TYPES = (
    "std::string", "std::vector", "std::map", "std::unordered_map",
    "std::set", "std::unordered_set", "std::list", "std::deque",
    "std::function", "std::mutex", "std::recursive_mutex",
    "std::condition_variable", "std::shared_ptr", "std::unique_ptr",
    "std::ostringstream", "std::stringstream", "std::ofstream",
)

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch",
    "alignof", "decltype", "static_assert", "defined", "assert",
    "throw", "new", "delete", "case", "do", "else", "goto", "typeid",
    "alignas", "noexcept", "and", "or", "not", "co_await", "co_return",
}

ALLOWLIST_PATH = os.path.join(REPO, "tools", "mesh-lint.allow")

# ----------------------------------------------------------------------------
# Findings / suppression plumbing
# ----------------------------------------------------------------------------

class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path          # repo-relative
        self.line = line          # 1-based, 0 = whole file
        self.message = message

    def __str__(self):
        loc = "%s:%d" % (self.path, self.line) if self.line else self.path
        return "%s: [%s] %s" % (loc, self.rule, self.message)


def load_allowlist():
    entries = []  # (rule, substring, used-flag-holder)
    if not os.path.exists(ALLOWLIST_PATH):
        return entries
    with open(ALLOWLIST_PATH) as fh:
        for n, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                print("mesh-lint: %s:%d: malformed allow entry: %r"
                      % (ALLOWLIST_PATH, n, line), file=sys.stderr)
                sys.exit(2)
            entries.append([parts[0], parts[1], False])
    return entries


def suppressed(finding, source_lines, allowlist):
    # Inline: "// mesh-lint: allow(rule)" on the flagged line.
    if finding.line and finding.line <= len(source_lines):
        text = source_lines[finding.line - 1]
        if re.search(r"mesh-lint:\s*allow\(%s\)" % re.escape(finding.rule),
                     text):
            return True
    for entry in allowlist:
        rule, substring, _ = entry
        if rule == finding.rule and (substring in finding.path or
                                     substring in finding.message):
            entry[2] = True
            return True
    return False

# ----------------------------------------------------------------------------
# Text engine: comment stripping, function extraction, call graph
# ----------------------------------------------------------------------------

def strip_comments_and_strings(text):
    """Blanks comments/string/char literals, preserving newlines and
    column positions so line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (j - i - 1) + (quote if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _match_delim(text, i, open_ch, close_ch):
    depth = 0
    for j in range(i, len(text)):
        if text[j] == open_ch:
            depth += 1
        elif text[j] == close_ch:
            depth -= 1
            if depth == 0:
                return j
    return -1


class FunctionDef:
    def __init__(self, simple, path, line, body):
        self.simple = simple
        self.path = path
        self.line = line
        self.body = body          # cleaned text incl. ctor-init list
        self.calls = []           # (simple_name, is_member, line)


def extract_functions(clean, path):
    """Finds function definitions by 'name(args) [qualifiers] {' shape.
    Over-approximate: junk matches only add unreachable graph nodes."""
    defs = []
    for m in re.finditer(r"\b((?:[A-Za-z_]\w*::)*~?[A-Za-z_]\w*)\s*\(", clean):
        name = m.group(1)
        simple = name.split("::")[-1].lstrip("~")
        if simple in CPP_KEYWORDS:
            continue
        k = m.start() - 1
        while k >= 0 and clean[k] in " \t":
            k -= 1
        # Preceded by an operator or member access: an expression, not
        # a definition.
        if k >= 0 and clean[k] in ".>&!=+-*/%,(|[<?:":
            continue
        close = _match_delim(clean, m.end() - 1, "(", ")")
        if close < 0:
            continue
        # Scan for the body '{', accepting qualifiers, attributes and a
        # ctor-init list; bail on ';' (declaration) or '=' (= default /
        # = delete / initializer).
        j = close + 1
        body_open = -1
        while j < len(clean):
            c = clean[j]
            if c == "{":
                body_open = j
                break
            if c in ";=":
                break
            if c == "(":
                j = _match_delim(clean, j, "(", ")")
                if j < 0:
                    break
                j += 1
                continue
            if c.isalnum() or c in "_:,&*<>~ \t\n[]":
                j += 1
                continue
            break
        if body_open < 0 or j < 0:
            continue
        body_close = _match_delim(clean, body_open, "{", "}")
        if body_close < 0:
            continue
        line = clean.count("\n", 0, m.start()) + 1
        # Body includes the ctor-init list (calls live there too).
        body = clean[close + 1:body_close + 1]
        fd = FunctionDef(simple, path, line, body)
        base = close + 1
        for cm in re.finditer(
                r"\b((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\(", body):
            callee = cm.group(1).split("::")[-1]
            if callee in CPP_KEYWORDS:
                continue
            p = cm.start() - 1
            while p >= 0 and body[p] in " \t":
                p -= 1
            is_member = p >= 0 and (
                body[p] == "." or (body[p] == ">" and p > 0 and
                                   body[p - 1] == "-"))
            call_line = clean.count("\n", 0, base + cm.start()) + 1
            fd.calls.append((callee, is_member, call_line))
        if re.search(r"\bnew\b", body):
            nm = re.search(r"\bnew\b", body)
            fd.calls.append(("operator new", False,
                             clean.count("\n", 0, base + nm.start()) + 1))
        defs.append(fd)
    return defs


def collect_sources():
    files = []
    for sub in ("src",):
        for root, _, names in os.walk(os.path.join(REPO, sub)):
            for n in sorted(names):
                if n.endswith((".cpp", ".h")):
                    files.append(os.path.join(root, n))
    return files


def build_call_graph(paths):
    graph = {}  # simple name -> list of FunctionDef
    for path in paths:
        with open(path) as fh:
            text = fh.read()
        clean = strip_comments_and_strings(text)
        for fd in extract_functions(clean, os.path.relpath(path, REPO)):
            graph.setdefault(fd.simple, []).append(fd)
    return graph

# ----------------------------------------------------------------------------
# Rule: atfork-unsafe-call
# ----------------------------------------------------------------------------

def check_atfork(graph):
    findings = []
    visited = set()
    # (name, chain) worklist; chain is the human-readable call path.
    work = [(r, r) for r in ATFORK_CHILD_ROOTS]
    while work:
        name, chain = work.pop()
        if name in visited:
            continue
        visited.add(name)
        for fd in graph.get(name, []):
            for callee, is_member, line in fd.calls:
                banned = (callee in ATFORK_BANNED_ANY or
                          (not is_member and callee in ATFORK_BANNED_BARE))
                if banned:
                    findings.append(Finding(
                        "atfork-unsafe-call", fd.path, line,
                        "'%s' reachable from atfork child handler "
                        "(via %s) is not async-signal-safe%s"
                        % (callee, chain,
                           "; use fatalErrorForkSafe"
                           if callee in ("fatalError", "logWarning")
                           else "")))
                elif callee in graph and callee not in visited:
                    work.append((callee, "%s -> %s" % (chain, callee)))
    return findings

# ----------------------------------------------------------------------------
# Rule: shim-static-init
# ----------------------------------------------------------------------------

def check_shim_static_init():
    findings = []
    shim_dir = os.path.join(REPO, "src", "interpose")
    for root, _, names in os.walk(shim_dir):
        for n in sorted(names):
            if not n.endswith((".cpp", ".h")):
                continue
            path = os.path.join(root, n)
            rel = os.path.relpath(path, REPO)
            with open(path) as fh:
                text = fh.read()
            clean = strip_comments_and_strings(text)
            # Mask function bodies: only file/namespace scope remains.
            masked = clean
            for fd in extract_functions(clean, rel):
                # Cheap mask: blank the body text occurrences by span
                # search (body text is unique enough in practice).
                idx = masked.find(fd.body)
                if idx >= 0:
                    blank = "".join(c if c == "\n" else " "
                                    for c in fd.body)
                    masked = masked[:idx] + blank + masked[idx + len(blank):]
            for t in SHIM_NONTRIVIAL_TYPES:
                for m in re.finditer(re.escape(t) + r"\b", masked):
                    line = masked.count("\n", 0, m.start()) + 1
                    findings.append(Finding(
                        "shim-static-init", rel, line,
                        "non-trivially-constructible type %s at file "
                        "scope in the interpose layer (shim code runs "
                        "before static initializers)" % t))
            # static Obj Name(args); — runtime construction at load.
            for m in re.finditer(
                    r"(?m)^static\s+(?:const\s+)?([A-Z]\w*(?:::\w+)*)\s+"
                    r"\w+\s*\([^)]", masked):
                line = masked.count("\n", 0, m.start()) + 1
                findings.append(Finding(
                    "shim-static-init", rel, line,
                    "file-scope 'static %s' with constructor arguments "
                    "in the interpose layer" % m.group(1)))
    return findings

# ----------------------------------------------------------------------------
# Rule: tsan-supp-comments
# ----------------------------------------------------------------------------

TEST_NAME_RE = re.compile(r"\b[A-Z]\w*Test\.\w+|\bpinned by\s+\S+")

def check_tsan_supp():
    findings = []
    path = os.path.join(REPO, "tsan.supp")
    if not os.path.exists(path):
        return findings
    with open(path) as fh:
        lines = fh.read().splitlines()
    comment_block = []
    for n, line in enumerate(lines, 1):
        stripped = line.strip()
        if stripped.startswith("#"):
            comment_block.append(stripped)
        elif not stripped:
            comment_block = []
        else:
            block = " ".join(comment_block)
            if len(block.split()) < 12:
                findings.append(Finding(
                    "tsan-supp-comments", "tsan.supp", n,
                    "suppression '%s' lacks a comment explaining the "
                    "benign mechanism" % stripped))
            if not TEST_NAME_RE.search(block):
                findings.append(Finding(
                    "tsan-supp-comments", "tsan.supp", n,
                    "suppression '%s' does not name the test pinning "
                    "its mechanism (write 'pinned by <Suite.Case>')"
                    % stripped))
            comment_block = []
    return findings

# ----------------------------------------------------------------------------
# Optional libclang engine
# ----------------------------------------------------------------------------

def try_clang_engine(verbose):
    """Refines the atfork call graph via libclang when importable.
    Returns a graph in the text engine's shape, or None."""
    try:
        from clang import cindex  # noqa: F401
    except Exception:
        if verbose:
            print("mesh-lint: libclang not importable; using text engine")
        return None
    try:
        from clang.cindex import Index, CursorKind
        cc = os.path.join(REPO, "build", "compile_commands.json")
        if not os.path.exists(cc):
            return None
        import json
        with open(cc) as fh:
            commands = json.load(fh)
        index = Index.create()
        graph = {}
        for entry in commands:
            if "/src/" not in entry["file"]:
                continue
            args = [a for a in entry["arguments"][1:]
                    if a != entry["file"]] if "arguments" in entry else []
            tu = index.parse(entry["file"], args=args)
            stack = [tu.cursor]
            while stack:
                cur = stack.pop()
                if cur.kind in (CursorKind.CXX_METHOD,
                                CursorKind.FUNCTION_DECL,
                                CursorKind.CONSTRUCTOR,
                                CursorKind.DESTRUCTOR) \
                        and cur.is_definition():
                    fd = FunctionDef(cur.spelling,
                                     os.path.relpath(str(cur.location.file),
                                                     REPO),
                                     cur.location.line, "")
                    for c in cur.walk_preorder():
                        if c.kind == CursorKind.CALL_EXPR and c.spelling:
                            fd.calls.append((c.spelling, False,
                                             c.location.line))
                    graph.setdefault(fd.simple, []).append(fd)
                stack.extend(cur.get_children())
        return graph or None
    except Exception as e:
        if verbose:
            print("mesh-lint: libclang engine failed (%s); "
                  "falling back to text engine" % e)
        return None

# ----------------------------------------------------------------------------
# main
# ----------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(
        prog="mesh-lint",
        description="Mesh repo-specific concurrency/fork-safety linter")
    ap.add_argument("--check", action="store_true",
                    help="CI mode (same as default: exit 1 on findings)")
    ap.add_argument("--engine", choices=("text", "clang"), default="text",
                    help="call-graph engine for atfork-unsafe-call")
    ap.add_argument("--verbose", "-v", action="store_true")
    ap.add_argument("--rule", action="append",
                    choices=("atfork-unsafe-call", "shim-static-init",
                             "tsan-supp-comments"),
                    help="run only the given rule(s)")
    args = ap.parse_args()

    rules = set(args.rule) if args.rule else {
        "atfork-unsafe-call", "shim-static-init", "tsan-supp-comments"}

    graph = None
    if "atfork-unsafe-call" in rules:
        if args.engine == "clang":
            graph = try_clang_engine(args.verbose)
        if graph is None:
            graph = build_call_graph(collect_sources())

    findings = []
    if "atfork-unsafe-call" in rules:
        findings += check_atfork(graph)
    if "shim-static-init" in rules:
        findings += check_shim_static_init()
    if "tsan-supp-comments" in rules:
        findings += check_tsan_supp()

    allowlist = load_allowlist()
    survivors = []
    file_cache = {}
    for f in findings:
        abspath = os.path.join(REPO, f.path)
        if abspath not in file_cache:
            try:
                with open(abspath) as fh:
                    file_cache[abspath] = fh.read().splitlines()
            except OSError:
                file_cache[abspath] = []
        if suppressed(f, file_cache[abspath], allowlist):
            if args.verbose:
                print("suppressed: %s" % f)
            continue
        survivors.append(f)

    # Stale allow entries are findings too: a suppression must die with
    # the code it excused.
    for rule, substring, used in allowlist:
        if not used:
            survivors.append(Finding(
                rule, os.path.relpath(ALLOWLIST_PATH, REPO), 0,
                "stale allow entry %r matches nothing" % substring))

    for f in survivors:
        print(f)
    if args.verbose and not survivors:
        print("mesh-lint: clean (%d rule(s))" % len(rules))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
