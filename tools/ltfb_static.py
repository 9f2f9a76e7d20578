#!/usr/bin/env python3
"""Static checker for the LTFB repo: repo invariants plus the comm-protocol
and concurrency contracts that neither the compiler nor clang-tidy can see.

Every file is read once into a model (comment/literal-stripped text, classes,
function definitions, lock and tag declarations) and two kinds of rule run on
it. Per-file rules check src/, tests/, bench/ and examples/, each within the
path scope named below:

  banned-call      (src/) no std::rand/srand, time(nullptr), assert() (use
                   util/rng and LTFB_ASSERT) or naked new/delete (use
                   containers and smart pointers).
  stdout           (src/) std::cout/std::cerr/printf only in the designated
                   sinks, util/logging and util/table.
  include-hygiene  (all) headers use #pragma once; project includes are quoted
                   src/-relative paths that resolve; a src/ .cpp includes its
                   own header first so every header is proven self-contained.
  comm-tags        (src/) the internal collective tag namespace (bit 62,
                   Communicator::next_internal_tag) is minted only in
                   src/comm/communicator.{hpp,cpp}.
  entry-checks     (manifest) the concurrency substrate's public entry points
                   validate their arguments/state (LTFB_CHECK/LTFB_ASSERT or a
                   throw) in their own body, or forward to an overload that
                   does.
  matmul-nest      (src/ outside src/tensor/) no hand-rolled triple-nested
                   multiply-accumulate: it bypasses the tiled, pool-threaded,
                   conformance-tested tensor::gemm kernel and its telemetry.
  isa-dispatch     (all but src/tensor/simd.hpp) no raw ISA conditionals
                   (__AVX*__, __SSE*__, __ARM_NEON, __aarch64__,
                   LTFB_SIMD_WIDTH, immintrin.h/arm_neon.h): width dispatch
                   goes through the portable vec<W> wrapper.
  telemetry        (src/, bench/, examples/) metric and span name literals
                   follow the subsystem/verb convention ([a-z0-9_]+ segments
                   joined by '/').

Tree rules model src/ as a whole and check cross-file protocol properties:

  tag-pairing    Every message-tag family has both a send-side and a
                 receive-side endpoint somewhere in the tree; a tag only ever
                 sent (or only ever received) rots in a mailbox or deadlocks
                 its receiver. A Backend::deliver(src, dst, Envelope{...})
                 call counts as a send endpoint, with the tag read out of the
                 envelope aggregate (comm/backend.hpp).
  tag-reuse      No tag base value is shared by two subsystems (directories
                 under src/): mailbox matching keys on (peer, tag), so two
                 subsystems reusing one value can steal each other's messages.
  comm-deadline  Every blocking recv/sendrecv/wait/shrink in src/core and
                 src/datastore reaches a deadline, following identifiers to
                 their declarations (`auto d = cfg.exchange_timeout;
                 comm.recv(src, tag, d);` passes). An explicit
                 Deadline::never() does not count: spelling out "block
                 forever" in the fault-tolerant layers is the hang hunted.
  sched-ack      A file that sends on the scheduler command namespace
                 (kSched...CmdTag) also receives the matching ack
                 (kSched...AckTag) under a bounded deadline.
  lock-order     The lock digraph built from MutexLock scope nesting,
                 LTFB_REQUIRES/LTFB_ACQUIRE annotations and the call graph (a
                 call made while holding A inherits every lock the callee may
                 take) has no cycle.
  rank-binding   Every std::thread / thread-vector emplace_back / pool submit
                 that launches a lambda binds telemetry rank identity
                 (bind_rank / RankBinding / set_thread_name) in the lambda or
                 in a function the lambda directly calls.
  guarded-field  A member annotated LTFB_GUARDED_BY(mu) is accessed bare only
                 inside a method of its class while a MutexLock on `mu` is in
                 scope, the method carries LTFB_REQUIRES(mu), or the method
                 is a constructor/destructor (a GCC-side echo of Clang's
                 -Wthread-safety).

Known limitations (deliberate: this is a lint, not a compiler): lambda bodies
are excluded from the lock-order scope analysis because they usually run
outside the enclosing critical section; the call graph is keyed by simple
function name with a blocklist for std-container collisions; guarded-field
checks only bare member accesses (prefixed ones are Clang TSA's job under
LTFB_THREAD_SAFETY=ON).

Usage:
  python3 tools/ltfb_static.py [--root DIR] [--json]
  python3 tools/ltfb_static.py --fixtures tests/test_static_fixtures
  python3 tools/ltfb_static.py --validate

Exit status: number of findings (capped at 125), 126 if no sources found.
--fixtures / --validate exit 0 on success, 1 on failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SOURCE_DIRS = ("src", "tests", "bench", "examples")
FIXTURES_REL = "tests/test_static_fixtures"

# ---------------------------------------------------------------------------
# Text utilities
# ---------------------------------------------------------------------------

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "new",
    "delete", "throw", "else", "do", "case", "static_assert", "alignof",
    "decltype", "defined", "assert", "co_await", "co_return", "co_yield",
}

# Simple-name call-graph entries that collide with std container/sync method
# names; resolving them by name alone would fabricate lock-order edges.
CALL_NAME_BLOCKLIST = {
    "wait", "wait_for", "wait_until", "notify_one", "notify_all", "native",
    "lock", "unlock", "try_lock", "size", "empty", "get", "count", "begin",
    "end", "clear", "push_back", "pop_front", "pop_back", "emplace_back",
    "reserve", "resize", "insert", "erase", "find", "at", "front", "back",
    "str", "data", "c_str", "reset", "swap", "what", "load", "store", "test",
    "join", "detach", "substr", "append", "emplace", "contains", "value",
}

LEXEME_START = re.compile(r"//|/\*|[\"']")
RAW_STRING_PREFIXES = {"R", "u8R", "uR", "UR", "LR"}
RAW_STRING_OPEN = re.compile(r'"([^()\\\s"]{0,16})\(')
NOT_NEWLINE = re.compile(r"[^\n]")


def word_before(text: str, i: int, extra: str = "") -> str:
    """The run of identifier characters (plus `extra`) ending at offset i."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_" + extra):
        j -= 1
    return text[j:i]


def strip_cpp(text: str, keep_strings: bool = False) -> str:
    """Blanks comments and, unless keep_strings, the contents of string and
    char literals (raw strings included), preserving offsets and newlines so
    line numbers in findings stay accurate. A quote inside a numeric literal
    is a C++14 digit separator (0x5bf0'3635ull), not a char literal."""
    out = list(text)

    def blank(start: int, end: int, keep: bool = False):
        if not keep:
            out[start:end] = NOT_NEWLINE.sub(" ", text[start:end])

    n = len(text)
    m = LEXEME_START.search(text)
    while m:
        i, lexeme = m.start(), m.group(0)
        if lexeme == "//":
            end = text.find("\n", i)
            end = n if end < 0 else end
            blank(i, end)
        elif lexeme == "/*":
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            blank(i, end)
        elif lexeme == '"' and word_before(text, i) in RAW_STRING_PREFIXES:
            raw = RAW_STRING_OPEN.match(text, i)
            if raw is None:
                end = i + 1
            else:
                closer = ")" + raw.group(1) + '"'
                end = text.find(closer, raw.end())
                end = n if end < 0 else end + len(closer)
                blank(i + 1, end - 1, keep_strings)
        elif lexeme == "'" and word_before(text, i, "'.")[:1].isdigit():
            end = i + 1  # digit separator inside a numeric literal
        else:
            j = i + 1
            while j < n and text[j] != lexeme:
                j += 2 if text[j] == "\\" else 1
            end = min(j, n)
            blank(i + 1, end, keep_strings)
            end += 1
        m = LEXEME_START.search(text, end)
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_paren(text: str, open_ofs: int) -> int:
    """Offset just past the ')' matching the '(' at open_ofs; -1 if unclosed."""
    depth = 0
    for i in range(open_ofs, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_brace(text: str, open_ofs: int) -> int:
    """Offset of the '}' matching the '{' at open_ofs; len(text) if unclosed."""
    depth = 0
    for i in range(open_ofs, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def split_args(argtext: str) -> list[str]:
    """Split an argument list on top-level commas (paren/bracket/brace aware)."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(argtext):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(argtext[start:i].strip())
            start = i + 1
    tail = argtext[start:].strip()
    if tail or parts:
        parts.append(tail)
    return parts


def normalize_expr(expr: str) -> str:
    return re.sub(r"\s+", "", expr)


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule, self.message)

    def to_dict(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Per-file parsing
# ---------------------------------------------------------------------------

CLASS_HEAD = re.compile(
    r"\b(class|struct)\s+(?:LTFB_\w+\s*(?:\([^)]*\))?\s*)?"
    r"([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*)\s*(?:final\s*)?"
    r"(?::\s*(?!:)[^{;]*)?\{"
)
FUNC_NAME = re.compile(
    r"(?:[A-Za-z_]\w*\s*::\s*)*"
    r"(?:operator\s*(?:\(\s*\)|\[\s*\]|[^\w\s(]+)|~?[A-Za-z_]\w*)\s*\(")
DIRECTIVE = re.compile(r"^[ \t]*#(?:.*\\\n)*.*", re.MULTILINE)
MUTEX_DECL = re.compile(r"\b(?:util\s*::\s*)?Mutex\s+(\w+)\s*;")
GUARDED_DECL = re.compile(r"(\w+)\s+LTFB_GUARDED_BY\s*\(")
ACQ_RE = re.compile(r"\b(?:util\s*::\s*)?MutexLock\s+\w+\s*\(")
ANNOT_RE = re.compile(r"\bLTFB_(REQUIRES|ACQUIRE)\s*\(")
CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")
ASSIGN_RE = re.compile(
    r"((?:\w+\s*(?:\.|->)\s*)*\w+)\s*(?<![=!<>+\-*/|&%^])=(?!=)\s*([^;{}]+);"
)
TAG_CONST_RE = re.compile(r"\b(k\w*Tag\w*)\b\s*=\s*([^;,})]+)")


class FunctionDef:
    def __init__(self, name, cls, head_ofs, params_end, body_start, body_end,
                 requires, acquires):
        self.name = name          # simple name (no qualifier)
        self.cls = cls            # enclosing/qualifying class name or None
        self.head_ofs = head_ofs
        self.params_end = params_end  # just past the parameter list's ')'
        self.body_start = body_start  # offset of '{'
        self.body_end = body_end      # offset of the matching '}'
        self.requires = requires  # raw capability expressions
        self.acquires = acquires


class FileModel:
    def __init__(self, path: Path, root: Path, fixture_mode: bool):
        self.path = path
        self.root = root          # `rel` is relative to this directory
        self.rel = path.relative_to(root).as_posix()
        parts = Path(self.rel).parts
        if fixture_mode:
            self.subsystem = parts[0] if len(parts) > 1 else path.stem
        else:
            self.subsystem = parts[1] if len(parts) > 1 and parts[0] == "src" \
                else parts[0]
        self.raw = path.read_text(encoding="utf-8")
        self.text = strip_cpp(self.raw)  # code only
        self.code = strip_cpp(self.raw, keep_strings=True)  # code + literals
        self.classes = []          # (name, body_start, body_end)
        self.functions = []        # FunctionDef (definitions only)
        self.declared_requires = {}  # (cls, name) -> [expr]
        self.mutex_members = []    # (cls_or_None, member_name)
        self.guarded = []          # (cls_or_None, member, guard_expr)
        self.assignments = {}      # normalized LHS -> (RHS, offset)
        self.tag_consts = []       # (name, value_or_None, offset)
        self._parse()

    # -- class extents ------------------------------------------------------
    def _parse_classes(self):
        for m in CLASS_HEAD.finditer(self.text):
            pre = self.text[max(0, m.start() - 6):m.start()]
            if re.search(r"\benum\s*$", pre):
                continue
            body_open = m.end() - 1
            name = m.group(2).split("::")[-1].strip()
            self.classes.append((name, body_open, match_brace(self.text, body_open)))

    def enclosing_class(self, ofs: int):
        best = None
        for name, start, end in self.classes:
            if start < ofs <= end and (best is None or start > best[1]):
                best = (name, start)
        return best[0] if best else None

    # -- function definitions / declarations --------------------------------
    def _parse_functions(self):
        text = self.text
        # A name inside a preprocessor directive (a macro body) is never a
        # definition, however the code after the directive continues.
        directives = [(m.start(), m.end()) for m in DIRECTIVE.finditer(text)]
        pos = 0
        while True:
            m = FUNC_NAME.search(text, pos)
            if not m:
                break
            while directives and directives[0][1] <= m.start():
                directives.pop(0)
            if directives and directives[0][0] <= m.start():
                pos = directives[0][1]
                continue
            name_tok = normalize_expr(m.group(0)[:-1])
            open_paren = m.end() - 1
            prev = text[:m.start()].rstrip()[-2:] if m.start() else ""
            simple = name_tok.split("::")[-1]
            if (
                simple in CPP_KEYWORDS
                or simple.isupper()
                or prev.endswith(".")
                or prev.endswith("->")
            ):
                pos = m.end()
                continue
            after_args = match_paren(text, open_paren)
            if after_args < 0:
                pos = m.end()
                continue
            # Scan the header tail for `{` (definition) or `;` (declaration),
            # skipping parenthesized groups (LTFB_REQUIRES(...)) and a
            # constructor's init list (`: a_(x), b_{y}`).
            i, body_start, is_decl, init_list = after_args, -1, False, False
            while i < len(text):
                c = text[i]
                if c == "(":
                    j = match_paren(text, i)
                    if j < 0:
                        break
                    i = j
                    continue
                if c == "{":
                    if init_list and re.match(r"[\w>]", text[:i].rstrip()[-1:]):
                        i = match_brace(text, i) + 1  # member brace-init
                        continue
                    body_start = i
                    break
                if c == ";":
                    is_decl = True
                    break
                if c == ":" and "::" not in text[i - 1:i + 2]:
                    init_list = True
                elif c in ")]}" or (c == "," and not init_list) or (
                        c == "=" and not text.startswith("= 0", i)
                        and not re.match(r"=\s*(default|delete)", text[i:])):
                    break
                i += 1
            else:
                break
            if body_start < 0 and not is_decl:
                pos = m.end()
                continue
            tail = text[after_args:(body_start if body_start >= 0 else i)]
            requires, acquires = [], []
            for am in ANNOT_RE.finditer(tail):
                close = match_paren(tail, am.end() - 1)
                if close < 0:
                    continue
                expr = tail[am.end():close - 1].strip()
                if expr:
                    (requires if am.group(1) == "REQUIRES" else acquires).append(expr)
            qual = name_tok.rsplit("::", 1)[0].split("::")[-1] \
                if "::" in name_tok else None
            cls = qual or self.enclosing_class(m.start())
            if body_start >= 0:
                body_end = match_brace(text, body_start)
                self.functions.append(FunctionDef(
                    simple, cls, m.start(), after_args, body_start, body_end,
                    requires, acquires))
                pos = body_end + 1
            else:
                if requires or acquires:
                    key = (cls, simple)
                    self.declared_requires.setdefault(key, [])
                    self.declared_requires[key].extend(requires)
                pos = i + 1

    # -- members, assignments, tag constants ---------------------------------
    def _parse_members(self):
        for m in MUTEX_DECL.finditer(self.text):
            self.mutex_members.append((self.enclosing_class(m.start()), m.group(1)))
        for m in GUARDED_DECL.finditer(self.text):
            close = match_paren(self.text, m.end() - 1)
            if close < 0:
                continue
            guard = self.text[m.end():close - 1].strip()
            self.guarded.append((self.enclosing_class(m.start()), m.group(1), guard))
        for m in ASSIGN_RE.finditer(self.text):
            lhs = normalize_expr(m.group(1))
            self.assignments.setdefault(lhs, (m.group(2).strip(), m.start()))
        for m in TAG_CONST_RE.finditer(self.text):
            rhs = m.group(2).strip()
            value = None
            if re.fullmatch(r"[\d\s+\-*()<>xXa-fA-F]+", rhs):
                try:
                    value = eval(rhs, {"__builtins__": {}})  # noqa: S307
                except Exception:
                    value = None
            self.tag_consts.append((m.group(1), value, m.start()))

    def _parse(self):
        self._parse_classes()
        self._parse_functions()
        self._parse_members()

    # -- lambdas -------------------------------------------------------------
    def lambda_extents(self, start: int, end: int):
        """(body_open, body_close) for each lambda literal in [start, end)."""
        text, out, i = self.text, [], start
        while i < end:
            if text[i] != "[":
                i += 1
                continue
            prev = text[:i].rstrip()[-2:] if i else ""
            if prev and (prev[-1].isalnum() or prev[-1] in "_)]"):
                i += 1  # subscript, not a lambda
                continue
            depth, j = 0, i
            while j < end:
                if text[j] == "[":
                    depth += 1
                elif text[j] == "]":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if j >= end:
                break
            k = j + 1
            while k < end and text[k].isspace():
                k += 1
            if k < end and text[k] == "(":
                k = match_paren(text, k)
                if k < 0:
                    i = j + 1
                    continue
            while k < end:
                mm = re.match(r"\s*(mutable|noexcept|constexpr)\b", text[k:end])
                if mm:
                    k += mm.end()
                    continue
                mm = re.match(r"\s*->\s*[\w:<>,&*\s]+?(?=\{)", text[k:end])
                if mm:
                    k += mm.end()
                break
            while k < end and text[k].isspace():
                k += 1
            if k < end and text[k] == "{":
                close = match_brace(self.text, k)
                out.append((k, close))
                i = j + 1
            else:
                i = j + 1
        return out


# ---------------------------------------------------------------------------
# Tree model
# ---------------------------------------------------------------------------

class TreeModel:
    def __init__(self, files: list[FileModel], fixture_mode: bool):
        self.files = files
        self.fixture_mode = fixture_mode
        # (member name) -> set of (class, file rel) declaring a Mutex with it
        self.mutex_index = {}
        self.guard_index = {}   # class -> [(member, guard_expr, file)]
        self.functions = {}     # simple name -> [(FileModel, FunctionDef)]
        self.requires_decls = {}  # (cls, name) -> [expr]
        self.thread_vectors = set()
        for fm in files:
            for cls, member in fm.mutex_members:
                self.mutex_index.setdefault(member, set()).add((cls, fm.rel))
            for cls, member, guard in fm.guarded:
                self.guard_index.setdefault(cls, []).append((member, guard, fm))
            for fn in fm.functions:
                self.functions.setdefault(fn.name, []).append((fm, fn))
            for key, exprs in fm.declared_requires.items():
                self.requires_decls.setdefault(key, []).extend(exprs)
            for m in re.finditer(r"std\s*::\s*vector\s*<\s*std\s*::\s*thread\s*>\s+(\w+)",
                                 fm.text):
                self.thread_vectors.add(m.group(1))

    def fn_requires(self, fm: FileModel, fn: FunctionDef) -> list[str]:
        exprs = list(fn.requires)
        exprs.extend(self.requires_decls.get((fn.cls, fn.name), []))
        return exprs

    # -- lock identity -------------------------------------------------------
    def resolve_lock(self, expr: str, enclosing_cls, fm: FileModel) -> str:
        member = re.split(r"\.|->", normalize_expr(expr))[-1]
        member = re.sub(r"\W", "", member) or normalize_expr(expr)
        candidates = self.mutex_index.get(member, set())
        if "." not in expr and "->" not in expr:
            for cls, _rel in candidates:
                if cls == enclosing_cls and cls is not None:
                    return f"{cls}::{member}"
        same_file = {(cls, rel) for cls, rel in candidates if rel == fm.rel}
        pool = same_file or candidates
        classes = {cls for cls, _rel in pool}
        if len(classes) == 1:
            cls = next(iter(classes))
            return f"{cls}::{member}" if cls else f"{fm.rel}::{member}"
        return f"{fm.rel}:{normalize_expr(expr)}"


# ---------------------------------------------------------------------------
# Per-file rules: banned-call, stdout, comm-tags, isa-dispatch, telemetry
# ---------------------------------------------------------------------------
# Each entry: (rule, path prefixes in scope, exempt paths, pattern, message,
# whether the pattern reads string literals). A match anywhere in an in-scope
# file is a finding at the match's line.

BANNED_CALLS = [
    (r"\bstd::rand\b|\bsrand\s*\(",
     "std::rand/srand is banned; use util/rng.hpp (seeded, reproducible)"),
    (r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)",
     "time(nullptr) is banned; timing comes from telemetry::Stopwatch and "
     "seeds from util/rng.hpp"),
    (r"(?<![_\w.])assert\s*\(",
     "assert() is banned; use LTFB_ASSERT (stays live under "
     "LTFB_BOUNDS_CHECK) or LTFB_CHECK"),
    (r"(?<![_\w])new\s+(?![(])[A-Za-z_]",
     "naked new is banned; use std::make_unique/make_shared or a container"),
    (r"(?<![_\w])delete\s+(?!;)[A-Za-z_(]",
     "naked delete is banned; ownership belongs in smart pointers"),
]

PATTERN_RULES = [
    ("banned-call", ("src/",), (), re.compile(pattern), message, False)
    for pattern, message in BANNED_CALLS
] + [
    # Designated output sinks: the logging backend and the bench table
    # printer.
    ("stdout", ("src/",), ("src/util/logging.cpp", "src/util/table.cpp"),
     re.compile(r"\bstd::(cout|cerr)\b|(?<![_\w.:])f?printf\s*\("),
     "library code must not write to stdout/stderr directly; route through "
     "util/logging (or util/table for bench tables)", False),
    # The internal tag namespace: bit 62, minted by next_internal_tag. Any
    # other file computing tags this large would collide with collective
    # traffic.
    ("comm-tags", ("src/",),
     ("src/comm/communicator.cpp", "src/comm/communicator.hpp"),
     re.compile(r"<<\s*62\b|next_internal_tag"),
     "the internal collective tag namespace (bit 62 / next_internal_tag) is "
     "reserved to src/comm/communicator.cpp", False),
    # ISA knowledge is confined to the SIMD wrapper: everything else writes
    # width-generic vec<W> code and is compiled at whatever width
    # cmake/LtfbSimd.cmake selected. A raw __AVX2__ branch elsewhere would
    # silently diverge between build configurations.
    ("isa-dispatch", ("",), ("src/tensor/simd.hpp",),
     re.compile(r"__AVX\w*__|__SSE\w*__|__ARM_NEON\w*|__aarch64__"
                r"|\bLTFB_SIMD_WIDTH\b|immintrin\.h|arm_neon\.h"),
     "raw ISA conditionals are reserved to src/tensor/simd.hpp; write "
     "width-generic code against tensor::simd::vec (kNativeWidth, "
     "main_loop_bound) instead", True),
]


def check_patterns(fm: FileModel, findings: list):
    for rule, scope, exempt, pattern, message, reads_literals in PATTERN_RULES:
        if not fm.rel.startswith(scope) or fm.rel in exempt:
            continue
        text = fm.code if reads_literals else fm.text
        for m in pattern.finditer(text):
            findings.append(Finding(rule, fm.rel, line_of(text, m.start()),
                                    message))


# Metric and span names are registered once and become JSON keys / Perfetto
# track labels; the subsystem/verb convention is enforced on the literals
# handed to the telemetry macros and Registry registration calls.
METRIC_NAME = re.compile(r"^[a-z0-9_]+(/[a-z0-9_]+)+$")
METRIC_CALL = re.compile(
    r"(?:\bLTFB_SPAN|\bLTFB_COUNTER_ADD|\bLTFB_GAUGE_SET"
    r"|\bLTFB_TIMER_RECORD|\bLTFB_TIMED_SCOPE"
    r"|\.\s*counter|\.\s*gauge|\.\s*timer|\brecord_sim_span)"
    r"\s*\(\s*\"([^\"]*)\"")


def check_metric_names(fm: FileModel, findings: list):
    if not fm.rel.startswith(("src/", "bench/", "examples/")):
        return
    for m in METRIC_CALL.finditer(fm.code):
        name = m.group(1)
        if not METRIC_NAME.match(name):
            findings.append(Finding(
                "telemetry", fm.rel, line_of(fm.code, m.start()),
                f'metric name "{name}" violates the subsystem/verb '
                "convention ([a-z0-9_]+ segments joined by '/')"))


# ---------------------------------------------------------------------------
# Per-file rule: include-hygiene
# ---------------------------------------------------------------------------

INCLUDE_PATTERN = re.compile(r'^[ \t]*#[ \t]*include[ \t]+([<"][^>"]+[>"])',
                             re.MULTILINE)

# Project headers live under src/<lib>/; their include form is the quoted
# src/-relative path.
PROJECT_INCLUDE_DIRS = ("util/", "tensor/", "comm/", "nn/", "jag/", "data/",
                        "datastore/", "gan/", "workflow/", "core/",
                        "simulator/", "perf/", "telemetry/")


def check_include_hygiene(fm: FileModel, repo: Path, findings: list):
    """Quoted includes resolve under src/ of the file's own root or of the
    repo (fixtures include real headers), or next to the including file."""
    rel = fm.rel
    if rel.endswith(".hpp") and "#pragma once" not in fm.raw:
        findings.append(Finding("include-hygiene", rel, 1,
                                "header is missing #pragma once"))
    includes = list(INCLUDE_PATTERN.finditer(fm.code))
    for m in includes:
        spec = m.group(1)
        target = spec[1:-1]
        line = line_of(fm.code, m.start())
        if target.startswith("../") or "/../" in target:
            findings.append(Finding(
                "include-hygiene", rel, line,
                f'include "{target}" must be a src/-relative path, not a '
                "parent-relative one"))
        if spec.startswith("<") and target.startswith(PROJECT_INCLUDE_DIRS):
            findings.append(Finding(
                "include-hygiene", rel, line,
                f"project header <{target}> must use the quoted include "
                "form"))
        if spec.startswith('"') and not any(
                (d / target).is_file()
                for d in (fm.root / "src", repo / "src", fm.path.parent)):
            findings.append(Finding(
                "include-hygiene", rel, line,
                f'quoted include "{target}" resolves neither under src/ '
                "nor next to the including file (system headers use <...>)"))
    # A library .cpp must include its own header first: that proves every
    # header compiles stand-alone (no hidden include-order dependencies).
    if rel.startswith("src/") and rel.endswith(".cpp") and includes:
        own = rel[len("src/"):-len(".cpp")] + ".hpp"
        if (fm.root / "src" / own).is_file():
            first = includes[0].group(1)[1:-1]
            if first != own:
                findings.append(Finding(
                    "include-hygiene", rel,
                    line_of(fm.code, includes[0].start()),
                    f'first include must be the file\'s own header "{own}" '
                    f'(found "{first}")'))


# ---------------------------------------------------------------------------
# Per-file rule: matmul-nest
# ---------------------------------------------------------------------------
# A hand-rolled GEMM: the innermost of >= 3 nested for loops accumulating a
# product of two INDEXED operands (`a[..] * b[..]` or `a.at(..) * b.at(..)`).
# Requiring indexed-times-indexed keeps scalar accumulations (distance sums,
# dot products over fixed-size points) out of scope. Only src/tensor/ may
# contain one (the tiled kernel and its naive conformance reference).

FOR_LOOP = re.compile(r"\bfor\s*\(")
MAC_STATEMENT = re.compile(
    r"\+=[^;{}]*(?:\]\s*\*\s*[\w.>:-]*\[|\)\s*\*\s*[\w.>:-]*\()")


def for_loop_extents(text: str):
    """Yields (for_offset, body_start, body_end) for every for loop. The body
    of a braced loop is its block; an unbraced loop's body runs to the
    statement-terminating ';' (so `for(..) for(..) for(..) s;` nests)."""
    n = len(text)
    for m in FOR_LOOP.finditer(text):
        j = match_paren(text, m.end() - 1)
        if j < 0:
            continue
        while j < n and text[j].isspace():
            j += 1
        if j >= n:
            continue
        if text[j] == "{":
            yield m.start(), j, min(match_brace(text, j) + 1, n)
            continue
        k, depth = j, 0
        while k < n:
            c = text[k]
            if c in "({":
                depth += 1
            elif c in ")}":
                depth -= 1
            elif c == ";" and depth <= 0:
                break
            k += 1
        yield m.start(), j, min(k + 1, n)


def check_matmul_nest(fm: FileModel, findings: list):
    if not fm.rel.startswith("src/") or fm.rel.startswith("src/tensor/"):
        return
    extents = list(for_loop_extents(fm.text))
    for start, body_start, body_end in extents:
        body = fm.text[body_start:body_end]
        # Flag only the innermost loop of a nest: it holds the MAC statement
        # and no further for loop, so each nest reports once.
        if FOR_LOOP.search(body) or not MAC_STATEMENT.search(body):
            continue
        ancestors = sum(1 for s, b, e in extents if s != start and b <= start < e)
        if ancestors >= 2:
            findings.append(Finding(
                "matmul-nest", fm.rel, line_of(fm.text, start),
                "raw triple-nested multiply-accumulate loop: use "
                "tensor::gemm/matmul (register-tiled, pool-threaded, "
                "conformance-tested) instead of a hand-rolled kernel"))


# ---------------------------------------------------------------------------
# Per-file rule: entry-checks
# ---------------------------------------------------------------------------
# Public entry points of the concurrency substrate that must validate
# arguments/state in their own body. Maps file -> [(display name, definition
# name)]; a `Class::name` definition name matches only that class's
# definitions, a bare one every definition of that name in the file.

ENTRY_CHECK_MANIFEST = {
    "src/comm/communicator.cpp": [
        ("Communicator::world_rank_of", "Communicator::world_rank_of"),
        ("Communicator::send", "Communicator::send"),
        ("Communicator::recv", "Communicator::recv"),
        ("Communicator::sendrecv", "Communicator::sendrecv"),
        ("Communicator::take_payload", "Communicator::take_payload"),
        ("Communicator::broadcast", "Communicator::broadcast"),
        ("Communicator::reduce", "Communicator::reduce"),
        ("Communicator::gather", "Communicator::gather"),
        ("Communicator::scatter", "Communicator::scatter"),
        ("Communicator::split", "Communicator::split"),
        ("Communicator::shrink", "Communicator::shrink"),
        ("Request::test", "Request::test"),
        ("Request::wait", "Request::wait"),
        ("World::World", "World::World"),
        ("World::communicator", "World::communicator"),
        ("World::spawn_processes", "World::spawn_processes"),
    ],
    "src/comm/serializer.cpp": [
        ("Deserializer::consume", "Deserializer::consume"),
        ("Deserializer::expect_end", "Deserializer::expect_end"),
        ("Deserializer::unpack_floats", "Deserializer::unpack_floats"),
    ],
    "src/comm/wire.cpp": [
        ("wire::encode_frame", "encode_frame"),
        ("wire::decode_frame_body", "decode_frame_body"),
    ],
    "src/comm/socket_backend.cpp": [
        ("spawn_socket_mesh", "spawn_socket_mesh"),
    ],
    "src/comm/fault.cpp": [
        ("FaultSchedule::parse", "FaultSchedule::parse"),
        ("FaultSchedule::random_kill", "FaultSchedule::random_kill"),
    ],
    "src/datastore/data_store.cpp": [
        ("DataStore::DataStore", "DataStore::DataStore"),
        ("DataStore::preload", "DataStore::preload"),
        ("DataStore::fetch", "DataStore::fetch"),
        ("DataStore::begin_fetch", "DataStore::begin_fetch"),
        ("DataStore::collect_fetch", "DataStore::collect_fetch"),
        ("DataStore::build_directory", "DataStore::build_directory"),
        ("DataStore::stats", "DataStore::stats"),
        ("DataStore::insert_local", "DataStore::insert_local"),
        ("DataStore::repair_directory", "DataStore::repair_directory"),
    ],
    "src/core/population_checkpoint.cpp": [
        ("save_population_checkpoint", "save_population_checkpoint"),
        ("load_population_checkpoint", "load_population_checkpoint"),
        ("decode_population_checkpoint", "decode_population_checkpoint"),
    ],
    "src/core/ltfb.cpp": [
        ("tournament_exchange", "tournament_exchange"),
    ],
    "src/core/ltfb_comm.cpp": [
        ("run_distributed_ltfb", "run_distributed_ltfb"),
    ],
    "src/core/scheduler.cpp": [
        ("ElasticScheduler::ElasticScheduler",
         "ElasticScheduler::ElasticScheduler"),
        ("ElasticScheduler::issue_boundary", "ElasticScheduler::issue_boundary"),
        ("SchedulerClient::SchedulerClient", "SchedulerClient::SchedulerClient"),
        ("SchedulerClient::ack", "SchedulerClient::ack"),
        ("run_elastic_ltfb", "run_elastic_ltfb"),
    ],
    "src/util/thread_pool.hpp": [
        ("ThreadPool::submit", "submit"),
    ],
    "src/util/compute_pool.cpp": [
        ("ComputePool::resize", "ComputePool::resize"),
        ("ComputePool::run_tasks", "ComputePool::run_tasks"),
        ("ComputePool::parallel_ranges", "ComputePool::parallel_ranges"),
        ("ComputePool::env_threads", "ComputePool::env_threads"),
    ],
    "src/nn/parallel.cpp": [
        ("GradientBucketer::GradientBucketer",
         "GradientBucketer::GradientBucketer"),
        ("GradientBucketer::wire_dtype_from_env",
         "GradientBucketer::wire_dtype_from_env"),
        ("GradientBucketer::receive_chunk", "GradientBucketer::receive_chunk"),
        ("GradientBucketer::finish", "GradientBucketer::finish"),
    ],
    "src/nn/optimizer.cpp": [
        ("LossScaleController::LossScaleController",
         "LossScaleController::LossScaleController"),
        ("LossScalingOptimizer::LossScalingOptimizer",
         "LossScalingOptimizer::LossScalingOptimizer"),
        ("make_loss_scaling_factory", "make_loss_scaling_factory"),
    ],
    "src/nn/checkpoint.cpp": [
        ("nn::save_weights", "save_weights"),
        ("nn::load_weights", "load_weights"),
        ("nn::half_kind", "half_kind"),
    ],
    "src/tensor/half.hpp": [
        ("tensor::encode_half", "encode_half"),
        ("tensor::decode_half", "decode_half"),
    ],
    "src/tensor/tensor.hpp": [
        ("Tensor::at", "at"),
        ("Tensor::row", "row"),
        ("Tensor::operator[]", "operator[]"),
    ],
    "src/tensor/tensor.cpp": [
        ("Tensor::reshape", "Tensor::reshape"),
    ],
    "src/telemetry/telemetry.cpp": [
        ("Registry::counter", "Registry::counter"),
        ("Registry::gauge", "Registry::gauge"),
        ("Registry::timer", "Registry::timer"),
        ("Registry::record_sim_span", "Registry::record_sim_span"),
        ("telemetry::bind_rank", "bind_rank"),
    ],
    "src/telemetry/flight_recorder.cpp": [
        ("flight::start_watchdog", "start_watchdog"),
        ("flight::set_process_rank", "set_process_rank"),
        ("flight::set_postmortem_dir", "set_postmortem_dir"),
    ],
    "src/core/metrics_aggregator.cpp": [
        ("ClusterMetricsAggregator::ClusterMetricsAggregator",
         "ClusterMetricsAggregator::ClusterMetricsAggregator"),
    ],
}

VALIDATION_KEYWORDS = re.compile(
    r"\bLTFB_CHECK\b|\bLTFB_CHECK_MSG\b|\bLTFB_ASSERT\b|\bthrow\b"
    r"|\bthrow_format\b|\bcheck_no_fetch_in_flight\b")

# A body that is a single delegation statement — `{ other(args); }` or
# `{ return other(args); }` — inherits the callee's validation.
DELEGATION_BODY = re.compile(
    r"^\{\s*(return\s+)?[\w:]+\s*\([^;{}]*\)\s*;\s*\}$")

# A delegating constructor — `: Type(args) {}` — likewise inherits the
# target constructor's validation. Matched against the text between the
# parameter list's closing paren and the (empty) body.
DELEGATING_CTOR = re.compile(r"^\s*:\s*[\w:]+\s*\(.*\)\s*$", re.DOTALL)


def check_entry_points(fm: FileModel, findings: list):
    for display, token in ENTRY_CHECK_MANIFEST.get(fm.rel, ()):
        cls, _, name = token.rpartition("::")
        defs = [fn for fn in fm.functions
                if fn.name == name and (not cls or fn.cls == cls)]
        if not defs:
            findings.append(Finding(
                "entry-checks", fm.rel, 1,
                f"manifest entry point {display} not found — update "
                "tools/ltfb_static.py if it moved or was renamed"))
        for fn in defs:
            body = fm.text[fn.body_start:fn.body_end + 1].strip()
            if VALIDATION_KEYWORDS.search(body) or DELEGATION_BODY.match(body):
                continue  # checks, or a one-line forwarder to a checked overload
            if re.fullmatch(r"\{\s*\}", body) and DELEGATING_CTOR.match(
                    fm.text[fn.params_end:fn.body_start]):
                continue  # delegating constructor: target validates
            findings.append(Finding(
                "entry-checks", fm.rel, line_of(fm.text, fn.head_ofs),
                f"public entry point {display} must validate its "
                "arguments/state (LTFB_CHECK / LTFB_ASSERT / throw)"))


FILE_RULES = (check_patterns, check_metric_names, check_matmul_nest,
              check_entry_points)


# ---------------------------------------------------------------------------
# Rule: tag-pairing / tag-reuse
# ---------------------------------------------------------------------------

ENDPOINT_RE = re.compile(
    r"(\w+)?\s*(?:\.|->)\s*(send|recv|irecv|sendrecv|deliver)\s*\(")
SEND_KINDS = {"send": "send", "sendrecv": "both", "recv": "recv",
              "irecv": "recv", "deliver": "send"}


def deliver_tag_arg(args: list[str]) -> str | None:
    """Tag expression of a Backend::deliver call site.

    The backend API (comm/backend.hpp) moves the send endpoint one level
    down: deliver(src, dst, Envelope{world_src, comm_id, tag, payload,
    flow_id}).  The tag is the third field of the envelope aggregate, so
    resolve it from the braced initializer instead of the argument list.
    """
    if not args:
        return None
    brace = args[-1].find("{")
    if brace < 0 or not args[-1].rstrip().endswith("}"):
        return None
    fields = split_args(args[-1][brace + 1:args[-1].rindex("}")])
    return fields[2] if len(fields) >= 3 else None


def tag_const_order(tag_const_names: set) -> list:
    """Deterministic lookup order: real tag namespaces (`...Tag`/`...TagBase`)
    before helper constants such as a tag-window width, so a tag function
    that mentions both always resolves to its namespace — never to whichever
    name Python's per-process string hashing happens to iterate first."""
    return sorted(tag_const_names,
                  key=lambda name: (not re.search(r"Tag(Base)?$", name), name))


def resolve_tag_family(expr: str, fm: FileModel, tag_const_names: set, depth=0):
    norm = normalize_expr(expr)
    for name in tag_const_order(tag_const_names):
        if re.search(rf"\b{re.escape(name)}\b", expr):
            return ("const", name)
    if depth < 2 and norm in fm.assignments:
        rhs, _ofs = fm.assignments[norm]
        fam = resolve_tag_family(rhs, fm, tag_const_names, depth + 1)
        if fam[0] == "const":
            return fam
        for cm in CALL_RE.finditer(rhs):
            for ffm, fn in [(fm, f) for f in fm.functions if f.name == cm.group(1)]:
                body = ffm.text[fn.body_start:fn.body_end]
                for name in tag_const_order(tag_const_names):
                    if re.search(rf"\b{re.escape(name)}\b", body):
                        return ("const", name)
        return ("local", fm.rel, norm)
    if re.fullmatch(r"[\w.]+(->[\w.]+)*", norm):
        return ("local", fm.rel, norm)
    return ("expr", fm.rel, norm)


def tag_scope(tree: TreeModel):
    """Files the tag rules read (src/comm/ is the transport itself, not a
    protocol user) and the tag constant names declared across them."""
    scoped = [fm for fm in tree.files
              if tree.fixture_mode or not fm.rel.startswith("src/comm/")]
    return scoped, {name for fm in scoped for name, _v, _o in fm.tag_consts}


def tag_endpoints(fm: FileModel, tag_const_names: set):
    """(offset, kind, tag family, argument text) of each send/recv/deliver
    call site whose tag argument can be read."""
    for m in ENDPOINT_RE.finditer(fm.text):
        open_paren = fm.text.index("(", m.end() - 1)
        close = match_paren(fm.text, open_paren)
        if close < 0:
            continue
        argtext = fm.text[open_paren + 1:close - 1]
        args = split_args(argtext)
        if m.group(2) == "deliver":
            tag_arg = deliver_tag_arg(args)
        else:
            tag_arg = args[1] if len(args) >= 2 else None
        if tag_arg is not None:
            yield (m.start(), SEND_KINDS[m.group(2)],
                   resolve_tag_family(tag_arg, fm, tag_const_names), argtext)


def check_tags(tree: TreeModel, findings: list):
    scoped, tag_const_names = tag_scope(tree)
    consts = [(name, value, fm.subsystem, fm, ofs)
              for fm in scoped for name, value, ofs in fm.tag_consts]

    # tag-reuse: base values must be distinct across subsystems.
    by_value = {}
    for name, value, subsystem, fm, ofs in consts:
        if value is None or not re.search(r"Tag(Base)?$", name):
            continue
        by_value.setdefault(value, []).append((name, subsystem, fm, ofs))
    for value, users in sorted(by_value.items()):
        subsystems = {u[1] for u in users}
        if len(subsystems) > 1:
            name, _sub, fm, ofs = users[-1]
            others = ", ".join(f"{n} ({s})" for n, s, _f, _o in users[:-1])
            findings.append(Finding(
                "tag-reuse", fm.rel, line_of(fm.text, ofs),
                f"tag constant {name} = {value} collides with {others}; "
                f"tag values must be unique across subsystems"))

    # tag-pairing: each family needs a send-side and a recv-side endpoint.
    families = {}  # family -> {"send": [(fm, ofs)], "recv": [...]}
    for fm in scoped:
        for ofs, kind, family, _args in tag_endpoints(fm, tag_const_names):
            entry = families.setdefault(family, {"send": [], "recv": []})
            for k in (("send", "recv") if kind == "both" else (kind,)):
                entry[k].append((fm, ofs))
    for family in sorted(families, key=str):
        entry = families[family]
        for missing, present in (("recv", "send"), ("send", "recv")):
            if entry[missing] or not entry[present]:
                continue
            fm, ofs = entry[present][0]
            label = family[1] if family[0] == "const" else family[-1]
            findings.append(Finding(
                "tag-pairing", fm.rel, line_of(fm.text, ofs),
                f"tag family '{label}' has {len(entry[present])} {present} "
                f"endpoint(s) but no {missing} endpoint anywhere in the tree"))


# ---------------------------------------------------------------------------
# Rule: comm-deadline (dataflow)
# ---------------------------------------------------------------------------

DEADLINE_WORD = re.compile(r"timeout|deadline|chrono", re.IGNORECASE)
BLOCKING_RE = re.compile(r"(\w+)?\s*(?:\.|->)\s*(recv|sendrecv|wait|shrink)\s*\(")
DEADLINE_DIRS = ("src/core/", "src/datastore/")
# The Deadline options type has an explicit unbounded spelling; it contains
# the word "deadline" but must NOT satisfy this rule — an explicit never()
# at a call site in src/core or src/datastore is exactly the hang the rule
# exists to catch.
NEVER_DEADLINE_RE = re.compile(r"(?:Deadline\s*::\s*)?\bnever\s*\(\s*\)")


def identifier_has_deadline_decl(ident: str, fm: FileModel) -> bool:
    """True if `ident` is declared/assigned from something deadline-shaped."""
    for m in re.finditer(
            rf"([\w:<>,&\s]*?)\b{re.escape(ident)}\b\s*[=({{]([^;]*)[;)]", fm.text):
        if DEADLINE_WORD.search(m.group(1)) or DEADLINE_WORD.search(m.group(2)):
            return True
    return False


def args_have_deadline(argtext: str, fm: FileModel) -> bool:
    """True when a call's argument text reaches a bounded deadline: either a
    deadline-shaped word appears inline (excluding the explicit never()
    spelling) or one of the arguments is an identifier whose declaration
    carries one."""
    if DEADLINE_WORD.search(NEVER_DEADLINE_RE.sub("", argtext)):
        return True
    for arg in split_args(argtext):
        if re.fullmatch(r"\w+", arg) and identifier_has_deadline_decl(arg, fm):
            return True
    return False


def check_deadlines(tree: TreeModel, findings: list):
    for fm in tree.files:
        if not tree.fixture_mode and not fm.rel.startswith(DEADLINE_DIRS):
            continue
        for m in BLOCKING_RE.finditer(fm.text):
            receiver = m.group(1) or ""
            if receiver.rstrip("_").endswith("cv") or receiver in ("this",):
                continue
            open_paren = fm.text.index("(", m.end() - 1)
            close = match_paren(fm.text, open_paren)
            if close < 0:
                continue
            argtext = fm.text[open_paren + 1:close - 1]
            if args_have_deadline(argtext, fm):
                continue
            findings.append(Finding(
                "comm-deadline", fm.rel, line_of(fm.text, m.start()),
                f"blocking {m.group(2)}() without a reachable deadline "
                f"argument (args: '{argtext.strip() or '<none>'}'); pass a "
                f"timeout or a variable whose declaration carries one"))


# ---------------------------------------------------------------------------
# Rule: sched-ack (protocol)
# ---------------------------------------------------------------------------
# The elastic scheduler's command/ack protocol (core/scheduler.hpp): every
# file that SENDS on the scheduler command namespace (a tag resolving to a
# kSched...CmdTag... constant) must also RECEIVE on the matching ack
# namespace (kSched...AckTag...) under a bounded deadline. A scheduler that
# issues commands without a deadline-bounded ack collection hangs forever
# on the first dead target — exactly the failure mode the command/ack
# protocol exists to prevent.

SCHED_CMD_CONST = re.compile(r"kSched\w*CmdTag")
SCHED_ACK_CONST = re.compile(r"kSched\w*AckTag")


def check_sched_protocol(tree: TreeModel, findings: list):
    scoped, tag_const_names = tag_scope(tree)
    for fm in scoped:
        cmd_send_ofs = None
        bounded_ack_recv = False
        for ofs, kind, family, argtext in tag_endpoints(fm, tag_const_names):
            if family[0] != "const":
                continue
            if kind in ("send", "both") and SCHED_CMD_CONST.search(family[1]):
                if cmd_send_ofs is None:
                    cmd_send_ofs = ofs
            if kind in ("recv", "both") and SCHED_ACK_CONST.search(family[1]):
                if args_have_deadline(argtext, fm):
                    bounded_ack_recv = True
        if cmd_send_ofs is not None and not bounded_ack_recv:
            findings.append(Finding(
                "sched-ack", fm.rel, line_of(fm.text, cmd_send_ofs),
                "scheduler command send (kSched...CmdTag namespace) without "
                "a deadline-bounded ack recv (kSched...AckTag) in the same "
                "file; a dead target would hang the scheduler forever"))


# ---------------------------------------------------------------------------
# Rule: lock-order
# ---------------------------------------------------------------------------

def body_acquisitions(tree: TreeModel, fm: FileModel, fn: FunctionDef,
                      blank_lambdas: bool):
    """[(lock_id, acq_ofs, scope_end)] for MutexLock declarations in the body."""
    text = fm.text
    lambdas = fm.lambda_extents(fn.body_start, fn.body_end) if blank_lambdas else []

    def in_lambda(ofs):
        return any(s < ofs <= e for s, e in lambdas)

    out = []
    for m in ACQ_RE.finditer(text, fn.body_start, fn.body_end):
        if in_lambda(m.start()):
            continue
        open_paren = text.index("(", m.end() - 1)
        close = match_paren(text, open_paren)
        if close < 0:
            continue
        expr = text[open_paren + 1:close - 1]
        lock_id = tree.resolve_lock(expr, fn.cls, fm)
        depth, scope_end = 0, fn.body_end
        for i in range(close, fn.body_end):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth < 0:
                    scope_end = i
                    break
        out.append((lock_id, m.start(), scope_end))
    return out


def acquired_closure(tree: TreeModel, fm: FileModel, fn: FunctionDef,
                     memo: dict, stack: set) -> set:
    key = (fm.rel, fn.head_ofs)
    if key in memo:
        return memo[key]
    if key in stack:
        return set()
    stack.add(key)
    locks = {lock for lock, _ofs, _end in body_acquisitions(tree, fm, fn, True)}
    for expr in fn.acquires:
        locks.add(tree.resolve_lock(expr, fn.cls, fm))
    lambdas = fm.lambda_extents(fn.body_start, fn.body_end)
    for cm in CALL_RE.finditer(fm.text, fn.body_start, fn.body_end):
        if any(s < cm.start() <= e for s, e in lambdas):
            continue
        locks |= callee_closure(tree, cm.group(1), memo, stack)
    stack.discard(key)
    memo[key] = locks
    return locks


def callee_closure(tree: TreeModel, name: str, memo: dict, stack: set) -> set:
    if name in CALL_NAME_BLOCKLIST or name in CPP_KEYWORDS:
        return set()
    defs = tree.functions.get(name, [])
    if not defs or len({fn.cls for _fm, fn in defs} | {None}) > 2:
        return set()  # unknown or ambiguous across classes
    out = set()
    for dfm, dfn in defs:
        out |= acquired_closure(tree, dfm, dfn, memo, stack)
    return out


def check_lock_order(tree: TreeModel, findings: list):
    edges = {}  # held -> {acquired: (fm, line)}
    memo = {}
    for fm in tree.files:
        for fn in fm.functions:
            acqs = body_acquisitions(tree, fm, fn, True)
            held = [(tree.resolve_lock(e, fn.cls, fm), fn.body_start, fn.body_end)
                    for e in tree.fn_requires(fm, fn)]
            held += acqs
            lambdas = fm.lambda_extents(fn.body_start, fn.body_end)
            for lock_a, start_a, end_a in held:
                for lock_b, ofs_b, _end_b in acqs:
                    if start_a < ofs_b <= end_a and lock_a != lock_b:
                        edges.setdefault(lock_a, {}).setdefault(
                            lock_b, (fm, line_of(fm.text, ofs_b)))
                for cm in CALL_RE.finditer(fm.text, max(start_a, fn.body_start),
                                           min(end_a, fn.body_end)):
                    if any(s < cm.start() <= e for s, e in lambdas):
                        continue
                    for lock_b in callee_closure(tree, cm.group(1), memo, set()):
                        if lock_b != lock_a:
                            edges.setdefault(lock_a, {}).setdefault(
                                lock_b, (fm, line_of(fm.text, cm.start())))
    # Cycle detection (DFS, three-color).
    color, reported = {}, set()

    def dfs(node, path):
        color[node] = 1
        for succ in sorted(edges.get(node, {})):
            if color.get(succ, 0) == 1:
                cycle = tuple(path[path.index(succ):] + [succ]) \
                    if succ in path else (node, succ, node)
                canon = tuple(sorted(cycle[:-1]))
                if canon not in reported:
                    reported.add(canon)
                    fm, line = edges[node][succ]
                    findings.append(Finding(
                        "lock-order", fm.rel, line,
                        "lock-order cycle: " + " -> ".join(cycle) +
                        " (potential deadlock; acquire locks in one global order)"))
            elif color.get(succ, 0) == 0:
                dfs(succ, path + [succ])
        color[node] = 2

    for node in sorted(edges):
        if color.get(node, 0) == 0:
            dfs(node, [node])


# ---------------------------------------------------------------------------
# Rule: rank-binding
# ---------------------------------------------------------------------------

BIND_WORD = re.compile(r"bind_rank|RankBinding|set_thread_name")
THREAD_CTOR_RE = re.compile(r"std\s*::\s*thread\s*(?:\w+\s*)?[({]")
VECTOR_SPAWN_RE = re.compile(r"(\w+)\s*(?:\.|->)\s*(?:emplace_back|push_back)\s*\(")
SUBMIT_RE = re.compile(r"(?:\.|->)\s*submit\s*(?:<[^>;{]*>)?\s*\(")


def lambda_body_at(fm: FileModel, ofs: int, limit: int):
    """Body text of the lambda starting at or just after `ofs`, else None."""
    i = ofs
    while i < limit and fm.text[i].isspace():
        i += 1
    if i >= limit or fm.text[i] != "[":
        return None
    for start, end in fm.lambda_extents(i, limit):
        return fm.text[start:end]
    return None


def lambda_binds_rank(tree: TreeModel, fm: FileModel, body: str) -> bool:
    if BIND_WORD.search(body):
        return True
    for cm in CALL_RE.finditer(body):
        for dfm, dfn in tree.functions.get(cm.group(1), []):
            if BIND_WORD.search(dfm.text[dfn.body_start:dfn.body_end]):
                return True
    return False


def check_rank_binding(tree: TreeModel, findings: list):
    for fm in tree.files:
        limit = len(fm.text)
        sites = []  # (ofs, lambda_search_ofs, what)
        for m in THREAD_CTOR_RE.finditer(fm.text):
            sites.append((m.start(), m.end(), "std::thread"))
        for m in VECTOR_SPAWN_RE.finditer(fm.text):
            if m.group(1) in tree.thread_vectors:
                sites.append((m.start(), m.end(), f"{m.group(1)}.emplace_back"))
        for m in SUBMIT_RE.finditer(fm.text):
            open_paren = fm.text.rindex("(", m.start(), m.end())
            sites.append((m.start(), open_paren + 1, "pool submit"))
        for ofs, search_ofs, what in sites:
            body = lambda_body_at(fm, search_ofs, limit)
            if body is None:
                continue  # not a lambda launch (or a declaration) — skip
            if not lambda_binds_rank(tree, fm, body):
                findings.append(Finding(
                    "rank-binding", fm.rel, line_of(fm.text, ofs),
                    f"{what} launches a lambda that never binds telemetry "
                    f"rank identity (bind_rank / RankBinding / "
                    f"set_thread_name), so its work is misattributed"))


# ---------------------------------------------------------------------------
# Rule: guarded-field
# ---------------------------------------------------------------------------

def check_guarded_fields(tree: TreeModel, findings: list):
    for cls, members in sorted(tree.guard_index.items(), key=str):
        if cls is None:
            continue
        defs = [(fm, fn) for fm in tree.files for fn in fm.functions
                if fn.cls == cls]
        for member, guard, _decl_fm in members:
            guard_name = re.split(r"\.|->", normalize_expr(guard))[-1]
            for fm, fn in defs:
                if fn.name == cls or fn.name.startswith("~"):
                    continue  # ctors/dtors: no concurrent access yet/any more
                requires = tree.fn_requires(fm, fn)
                if any(re.split(r"\.|->", normalize_expr(e))[-1] == guard_name
                       for e in requires):
                    continue
                acqs = [(ofs, end) for lock, ofs, end
                        in body_acquisitions(tree, fm, fn, False)
                        if lock.split("::")[-1].split(":")[-1] == guard_name]
                for am in re.finditer(rf"\b{re.escape(member)}\b",
                                      fm.text, ):
                    if not (fn.body_start < am.start() < fn.body_end):
                        continue
                    prev = fm.text[:am.start()].rstrip()[-2:]
                    if prev.endswith(".") or prev.endswith("->") or \
                            prev.endswith("::"):
                        continue  # prefixed access: Clang TSA territory
                    if any(ofs < am.start() <= end for ofs, end in acqs):
                        continue
                    findings.append(Finding(
                        "guarded-field", fm.rel, line_of(fm.text, am.start()),
                        f"{cls}::{fn.name} reads/writes '{member}' (guarded "
                        f"by {guard_name}) without holding the lock: wrap in "
                        f"util::MutexLock or annotate LTFB_REQUIRES"))


TREE_RULES = (check_tags, check_deadlines, check_sched_protocol,
              check_lock_order, check_rank_binding, check_guarded_fields)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

ALL_RULES = ("banned-call", "stdout", "include-hygiene", "comm-tags",
             "entry-checks", "matmul-nest", "isa-dispatch", "telemetry",
             "tag-pairing", "tag-reuse", "comm-deadline", "sched-ack",
             "lock-order", "rank-binding", "guarded-field")


def source_files(base: Path) -> list[Path]:
    return sorted(p for p in base.rglob("*")
                  if p.suffix in (".cpp", ".hpp") and p.is_file())


def run_rules(root: Path, files: list[Path], fixture_mode: bool,
              repo: Path) -> list[Finding]:
    """Models `files` (relative to `root`) and runs every rule. The tree
    rules see src/ only, except in fixture mode, where every fixture file is
    in scope; util/annotations.hpp is their vocabulary, not a subject."""
    models = [FileModel(path, root, fixture_mode) for path in files]
    tree = TreeModel([fm for fm in models
                      if (fixture_mode or fm.rel.startswith("src/"))
                      and not fm.rel.endswith("util/annotations.hpp")],
                     fixture_mode)
    findings: list[Finding] = []
    for rule in TREE_RULES:
        rule(tree, findings)
    for fm in models:
        for rule in FILE_RULES:
            rule(fm, findings)
        check_include_hygiene(fm, repo, findings)
    unique = {f.key(): f for f in findings}
    return sorted(unique.values(), key=Finding.key)


def tree_files(root: Path) -> list[Path]:
    """The compiled tree; the fixture corpus is analyzer input, not code."""
    fixtures = root / FIXTURES_REL
    return [p for sub in SOURCE_DIRS for p in source_files(root / sub)
            if fixtures not in p.parents]


EXPECT_RE = re.compile(r"//\s*expect-finding:\s*([\w-]+)")


def run_fixtures(fixtures_dir: Path, repo: Path) -> bool:
    """Each top-level entry (file or directory) is analyzed in isolation and
    must produce exactly the rule set its expect-finding comments declare;
    every rule must be declared by some fixture."""
    if not fixtures_dir.is_dir():
        print(f"ltfb_static: fixtures directory not found: {fixtures_dir}",
              file=sys.stderr)
        return False
    ok, declared = True, set()
    for entry in sorted(fixtures_dir.iterdir(), key=lambda p: p.name):
        if entry.is_dir():
            files, root = source_files(entry), entry
        elif entry.suffix in (".cpp", ".hpp"):
            files, root = [entry], fixtures_dir
        else:
            continue
        if not files:
            continue
        expected = set()
        for f in files:
            expected |= set(EXPECT_RE.findall(f.read_text(encoding="utf-8")))
        declared |= expected
        findings = run_rules(root, files, True, repo)
        fired = {f.rule for f in findings}
        if fired != expected:
            ok = False
            print(f"FAIL {entry.name}: expected {sorted(expected)}, "
                  f"fired {sorted(fired)}")
            for f in findings:
                print(f"    {f}")
        else:
            print(f"ok   {entry.name}: {sorted(fired) or '(clean)'}")
    for rule in ALL_RULES:
        if rule not in declared:
            ok = False
            print(f"FAIL no fixture declares rule {rule}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description="LTFB repo invariants and comm-protocol/concurrency "
                    "contract checker")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--fixtures", metavar="DIR",
                        help="run the known-bad fixture suite in DIR instead "
                             "of scanning the tree")
    parser.add_argument("--validate", action="store_true",
                        help="tree must be clean AND every fixture must fire")
    args = parser.parse_args()
    root = args.root.resolve()

    if args.fixtures and not args.validate:
        return 0 if run_fixtures(Path(args.fixtures).resolve(), root) else 1

    files = tree_files(root)
    if not files:
        # A mistyped --root must not green-light the tree in CI.
        print(f"ltfb_static: error: no sources found under {root}",
              file=sys.stderr)
        return 1 if args.validate else 126
    findings = run_rules(root, files, False, root)
    if args.json and not args.validate:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f)
        print(f"ltfb_static: {len(files)} files checked, "
              f"{len(findings)} finding(s)")
    if not args.validate:
        return min(len(findings), 125)
    fixtures_ok = run_fixtures(
        Path(args.fixtures or root / FIXTURES_REL).resolve(), root)
    print(f"fixtures: {'ok' if fixtures_ok else 'FAILED'}")
    return 0 if not findings and fixtures_ok else 1


if __name__ == "__main__":
    sys.exit(main())
