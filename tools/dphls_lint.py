#!/usr/bin/env python3
"""Repo-specific static checks for dphls that clang-tidy cannot express.

Rules (all single-file, stdlib-only, line/scope-based heuristics):

  notify-outside-lock      condition_variable notify_one()/notify_all()
                           called in a scope where no lock guard is
                           live (the PR 7 CapturedFrames bug class: a
                           waiter woken between unlock and notify may
                           destroy the CV mid-broadcast).
  naked-thread             std::thread constructed in src/ outside
                           src/host/scheduler.* — threads belong to
                           host::WorkerThread or host::parallelFor.
                           Top-level binaries (tools/, bench/, tests/)
                           may own threads.
  nondeterministic-random  rand()/std::random_device in deterministic
                           paths (src/, tools/): reproducibility
                           requires seeded engines.
  wallclock-in-kernel      steady_clock/system_clock/high_resolution_
                           clock ::now() inside src/systolic or
                           src/kernels — cycle accounting is analytic,
                           never wall-clock.
  missing-include-guard    a header without #pragma once or a classic
                           #ifndef/#define guard pair.
  unchecked-payload-index  src/serve decoder code indexing a payload
                           buffer with no preceding length check
                           (need()/remaining()/size comparison) in the
                           function.

Suppression: append to the offending line

    // dphls-lint: allow(<rule-id>) -- <justification>

The justification text is mandatory; a bare allow() still fires.

Usage:
    dphls_lint.py [--root DIR] [paths...]   # default: src tools bench tests
    dphls_lint.py --list-rules

Exit status: 0 clean, 1 violations, 2 usage error.
"""

import argparse
import os
import re
import sys

RULES = {
    "notify-outside-lock":
        "notify_one/notify_all outside the scope of a lock guard",
    "naked-thread":
        "std::thread in src/ outside host/scheduler",
    "nondeterministic-random":
        "rand()/std::random_device in deterministic paths",
    "wallclock-in-kernel":
        "wall-clock now() inside src/systolic or src/kernels",
    "missing-include-guard":
        "header lacks #pragma once or an #ifndef guard",
    "unchecked-payload-index":
        "serve decoder indexes payload without a length check",
}

SUPPRESS_RE = re.compile(
    r"//\s*dphls-lint:\s*allow\(([\w,\s-]+)\)\s*(?:--\s*(\S.*))?")

CPP_EXTS = (".cc", ".hh", ".cpp", ".hpp", ".cxx", ".h")
HEADER_EXTS = (".hh", ".hpp", ".h")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_comments_and_strings(line, in_block_comment):
    """Blank out string/char literals and comments, preserving length.

    Returns (code, still_in_block_comment). Keeps column positions
    stable so reported context stays meaningful.
    """
    out = []
    i = 0
    n = len(line)
    state = "block" if in_block_comment else "code"
    quote = ""
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "block":
            if c == "*" and nxt == "/":
                out.append("  ")
                i += 2
                state = "code"
            else:
                out.append(" ")
                i += 1
        elif state == "str":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                out.append(c)
                i += 1
                state = "code"
            else:
                out.append(" ")
                i += 1
        else:  # code
            if c == "/" and nxt == "/":
                out.append(" " * (n - i))
                break
            if c == "/" and nxt == "*":
                out.append("  ")
                i += 2
                state = "block"
            elif c in "\"'":
                quote = c
                out.append(c)
                i += 1
                state = "str"
            else:
                out.append(c)
                i += 1
    return "".join(out), state == "block"


def parse_suppressions(raw_line):
    """Rule ids suppressed on this line; None justification -> invalid."""
    m = SUPPRESS_RE.search(raw_line)
    if not m:
        return {}, None
    rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
    return rules, m.group(2)


class FileScanner:
    """Shared per-file pass: cleaned lines plus brace/guard tracking."""

    def __init__(self, path, text):
        self.path = path
        self.raw_lines = text.splitlines()
        self.lines = []
        in_block = False
        for raw in self.raw_lines:
            code, in_block = strip_comments_and_strings(raw, in_block)
            self.lines.append(code)

    def report(self, violations, lineno, rule, message):
        raw = self.raw_lines[lineno - 1]
        suppressed, justification = parse_suppressions(raw)
        if rule in suppressed:
            if justification:
                return
            message += " (suppression present but lacks a " \
                       "'-- justification'; add one)"
        violations.append(Violation(self.path, lineno, rule, message))


LOCK_DECL_RE = re.compile(
    r"\b(?:std::)?(lock_guard|unique_lock|scoped_lock|shared_lock)\s*"
    r"(?:<[^;]*?>)?\s+(\w+)\s*[({]")
NOTIFY_RE = re.compile(r"\b(\w+)\s*\.\s*notify_(?:one|all)\s*\(")
UNLOCK_RE = re.compile(r"\b(\w+)\s*\.\s*unlock\s*\(")


def check_notify_outside_lock(scanner, violations):
    """Track live lock guards per brace depth; flag unguarded notifies.

    Heuristic scope model: a guard declared at depth d is live until
    depth drops below d or <guard>.unlock() is seen. Function
    boundaries reset implicitly because guards die with their scope.
    """
    depth = 0
    guards = []  # list of (depth, varname, active)
    for idx, code in enumerate(scanner.lines):
        lineno = idx + 1
        m = LOCK_DECL_RE.search(code)
        if m:
            guards.append([depth, m.group(2), True])
        for um in UNLOCK_RE.finditer(code):
            for g in guards:
                if g[1] == um.group(1):
                    g[2] = False
        for nm in NOTIFY_RE.finditer(code):
            held = any(g[2] for g in guards)
            if not held:
                scanner.report(
                    violations, lineno, "notify-outside-lock",
                    "%s.notify_*() with no live lock guard in scope; "
                    "a waiter woken after unlock may destroy the CV "
                    "mid-broadcast" % nm.group(1))
        # Apply brace deltas after matching: a guard declared on this
        # line belongs to the scope the line opens into.
        depth += code.count("{") - code.count("}")
        guards = [g for g in guards if g[0] <= depth]
    return violations


THREAD_RE = re.compile(r"\bstd::(thread|jthread)\b(?!\s*::)")


def check_naked_thread(scanner, violations, relpath):
    norm = relpath.replace(os.sep, "/")
    if not norm.startswith("src/"):
        return violations
    if norm.startswith("src/host/scheduler."):
        return violations
    for idx, code in enumerate(scanner.lines):
        m = THREAD_RE.search(code)
        if m:
            scanner.report(
                violations, idx + 1, "naked-thread",
                "std::%s in library code; run it on a "
                "host::WorkerThread or use host::parallelFor "
                "(src/host/scheduler.hh)" % m.group(1))
    return violations


RANDOM_RE = re.compile(r"\bstd::random_device\b|(?<![\w:.])rand\s*\(\s*\)")


def check_nondeterministic_random(scanner, violations):
    for idx, code in enumerate(scanner.lines):
        if RANDOM_RE.search(code):
            scanner.report(
                violations, idx + 1, "nondeterministic-random",
                "nondeterministic randomness; use a seeded "
                "std::mt19937 so runs reproduce")
    return violations


WALLCLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now"
    r"\s*\(")


def check_wallclock_in_kernel(scanner, violations, relpath):
    norm = relpath.replace(os.sep, "/")
    if not (norm.startswith("src/systolic/") or
            norm.startswith("src/kernels/")):
        return violations
    for idx, code in enumerate(scanner.lines):
        if WALLCLOCK_RE.search(code):
            scanner.report(
                violations, idx + 1, "wallclock-in-kernel",
                "wall-clock read inside the cycle-accurate layer; "
                "cycle accounting must stay analytic")
    return violations


def check_include_guard(scanner, violations):
    """Accept #pragma once or a classic #ifndef/#define pair."""
    first_directives = []
    for code in scanner.lines:
        s = code.strip()
        if not s:
            continue
        first_directives.append(s)
        if len(first_directives) >= 2:
            break
    for s in first_directives:
        if s.startswith("#pragma once"):
            return violations
    if (len(first_directives) >= 2 and
            first_directives[0].startswith("#ifndef")):
        ifndef = first_directives[0].split()
        define = first_directives[1].split()
        if (first_directives[1].startswith("#define") and
                len(ifndef) >= 2 and len(define) >= 2 and
                ifndef[1] == define[1]):
            return violations
        # Textual-include headers (the per-tier sweep bodies) open with
        # "#ifndef CONFIG_MACRO / #error": they assert their inclusion
        # context instead of guarding, which is the stronger contract.
        if first_directives[1].startswith("#error"):
            return violations
    scanner.report(violations, 1, "missing-include-guard",
                   "header has neither #pragma once nor a matching "
                   "#ifndef/#define include guard")
    return violations


PAYLOAD_NAMES = r"(?:payload|_data|data|bytes|buf)"
PAYLOAD_INDEX_RE = re.compile(
    r"\b(" + PAYLOAD_NAMES + r")\s*\[((?:[^\[\]]|\[[^\]]*\])*)\]")
LENGTH_CHECK_RE = re.compile(
    r"\bneed\s*\(|\bremaining\s*\(\)|\.size\s*\(\)\s*[<>=!]|"
    r"[<>=!]=?\s*\w*\.size\s*\(\)|\b_len\b\s*[-<>]|[<>]=?\s*_len\b|"
    r"\bsize\s*[<>=!]|[<>]=?\s*size\b")


def check_unchecked_payload_index(scanner, violations, relpath):
    """In src/serve: payload[i] needs a length check earlier in scope.

    Scope approximation: a length check anywhere in the preceding 30
    cleaned lines of the same file region counts — decoder functions
    here are short, and the need()-before-index pattern always sits
    within a few lines.
    """
    norm = relpath.replace(os.sep, "/")
    if not norm.startswith("src/serve/"):
        return violations
    window = 30
    for idx, code in enumerate(scanner.lines):
        for m in PAYLOAD_INDEX_RE.finditer(code):
            index_expr = m.group(2).strip()
            # Constant indices into fixed-size stack buffers (frame
            # header fields) are covered by the buffer's declaration.
            if re.fullmatch(r"\d+", index_expr):
                continue
            lo = max(0, idx - window)
            context = "\n".join(scanner.lines[lo:idx + 1])
            if LENGTH_CHECK_RE.search(context):
                continue
            scanner.report(
                violations, idx + 1, "unchecked-payload-index",
                "'%s[%s]' with no length check (need()/remaining()/"
                "size comparison) in the preceding %d lines" %
                (m.group(1), index_expr, window))
    return violations


def lint_file(root, relpath):
    path = os.path.join(root, relpath)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [Violation(relpath, 0, "io", str(e))]
    scanner = FileScanner(relpath, text)
    violations = []
    check_notify_outside_lock(scanner, violations)
    check_naked_thread(scanner, violations, relpath)
    check_nondeterministic_random(scanner, violations)
    check_wallclock_in_kernel(scanner, violations, relpath)
    if relpath.endswith(HEADER_EXTS):
        check_include_guard(scanner, violations)
    check_unchecked_payload_index(scanner, violations, relpath)
    return violations


def collect_files(root, paths):
    files = []
    for p in paths:
        full = os.path.join(root, p)
        if os.path.isfile(full):
            if p.endswith(CPP_EXTS):
                files.append(p)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = [d for d in dirnames
                           if d not in ("build", ".git", "_deps")]
            for name in sorted(filenames):
                if name.endswith(CPP_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name),
                                          root)
                    files.append(rel)
    return sorted(set(files))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="dphls repo-specific static checks")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print rule ids and exit")
    ap.add_argument("paths", nargs="*",
                    default=["src", "tools", "bench", "tests", "fuzz",
                             "examples"],
                    help="files or directories relative to --root")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-24s %s" % (rule, RULES[rule]))
        return 0

    files = collect_files(args.root, args.paths)
    if not files:
        print("dphls_lint: no C++ files found under %r" % (args.paths,),
              file=sys.stderr)
        return 2

    violations = []
    for rel in files:
        violations.extend(lint_file(args.root, rel))
    for v in violations:
        print(v)
    print("dphls_lint: %d file(s) checked, %d violation(s)" %
          (len(files), len(violations)))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
