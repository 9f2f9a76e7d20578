#!/usr/bin/env python3
"""Comm-protocol and concurrency-contract static analyzer for the LTFB repo.

Sibling of ltfb_lint.py, but where the lint pass checks shallow per-line
invariants, this tool builds a small semantic model of the tree — comm call
sites, tag constants, lock acquisitions, capability annotations — and checks
cross-file protocol properties that neither the compiler nor a regex can see:

  tag-pairing    Every message-tag family has both a send-side and a
                 receive-side endpoint somewhere in the tree.  A tag that is
                 only ever sent (or only ever received) is a protocol hole:
                 the message either rots in a mailbox forever or the receiver
                 deadlocks waiting for traffic nobody produces.  Endpoints
                 are resolved through the backend API as well: a
                 Backend::deliver(src, dst, Envelope{...}) call counts as a
                 send endpoint, with the tag read out of the envelope
                 aggregate (comm/backend.hpp).

  tag-reuse      No tag base value is shared by two different subsystems
                 (directories under src/).  The in-process Communicator keys
                 mailbox matching on (peer, tag); two subsystems reusing one
                 value can steal each other's messages.

  comm-deadline  Dataflow form of the old lint rule: every blocking
                 recv/sendrecv/wait/shrink in src/core and src/datastore
                 must reach a deadline.  Unlike the regex rule this follows
                 identifiers to their declarations, so `auto d =
                 cfg.exchange_timeout; comm.recv(src, tag, d);` passes while
                 a naked recv fails.  An explicit Deadline::never() does NOT
                 satisfy the rule — spelling out "block forever" in the
                 fault-tolerant layers is exactly the hang being hunted.

  lock-order     Builds a lock digraph from MutexLock scope nesting,
                 LTFB_REQUIRES/LTFB_ACQUIRE annotations, and the call graph
                 (a call made while holding A inherits every lock the callee
                 may take).  Any cycle is a potential deadlock.

  rank-binding   Thread-boundary rule absorbed from ltfb_lint.py, upgraded
                 from a file manifest to call-site detection: every
                 std::thread / thread-vector emplace_back / pool submit that
                 launches a lambda must bind telemetry rank identity
                 (bind_rank / RankBinding / set_thread_name) in the lambda or
                 in a function the lambda directly calls.

  guarded-field  Lightweight, compiler-independent echo of Clang's
                 -Wthread-safety for the GCC-only path: a member annotated
                 LTFB_GUARDED_BY(mu) may only be accessed bare (no object
                 prefix) inside a method of its class while a MutexLock on
                 `mu` is in scope, the method carries LTFB_REQUIRES(mu), or
                 the method is a constructor/destructor.

Known limitations (deliberate — this is a lint, not a compiler): lambda
bodies are excluded from the lock-order scope analysis because they usually
execute outside the enclosing critical section; the call graph is keyed by
simple function name with a blocklist for std-container collisions; and the
guarded-field rule only checks bare member accesses (prefixed accesses are
Clang TSA's job under LTFB_THREAD_SAFETY=ON).

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


def strip_comments_and_strings(text: str) -> str:
    """Blank comments and string/char literals, preserving offsets/newlines."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' and re.search(r"(?:u8|[uUL])?R$", text[max(0, i - 3):i]):
            # Raw string literal: R"delim( ... )delim"
            m = re.match(r'"([^(\s"\\]*)\(', text[i:])
            if m is None:
                i += 1
                continue
            closer = ")" + m.group(1) + '"'
            end = text.find(closer, i + m.end())
            end = (end + len(closer)) if end >= 0 else n
            for j in range(i, end):
                if text[j] != "\n":
                    out[j] = " "
            i = end
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
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
FUNC_NAME = re.compile(r"[A-Za-z_~][\w]*(?:\s*::\s*~?[A-Za-z_][\w]*)*\s*\(")
MUTEX_DECL = re.compile(r"\b(?:util\s*::\s*)?Mutex\s+(\w+)\s*;")
GUARDED_DECL = re.compile(r"(\w+)\s+LTFB_GUARDED_BY\s*\(")
ACQ_RE = re.compile(r"\b(?:util\s*::\s*)?MutexLock\s+\w+\s*\(")
ANNOT_RE = re.compile(r"\bLTFB_(REQUIRES|ACQUIRE)\s*\(")
LAMBDA_HEAD = re.compile(r"\[")
CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")
ASSIGN_RE = re.compile(
    r"((?:\w+\s*(?:\.|->)\s*)*\w+)\s*(?<![=!<>+\-*/|&%^])=(?!=)\s*([^;{}]+);"
)
TAG_CONST_RE = re.compile(r"\b(k\w*Tag\w*)\b\s*=\s*([^;,})]+)")


class FunctionDef:
    def __init__(self, name, cls, head_ofs, body_start, body_end, requires, acquires):
        self.name = name          # simple name (no qualifier)
        self.cls = cls            # enclosing/qualifying class name or None
        self.head_ofs = head_ofs
        self.body_start = body_start  # offset of '{' (or -1 for declarations)
        self.body_end = body_end
        self.requires = requires  # raw capability expressions
        self.acquires = acquires


class FileModel:
    def __init__(self, path: Path, rel: str, subsystem: str):
        self.path = path
        self.rel = rel
        self.subsystem = subsystem
        self.raw = path.read_text()
        self.text = strip_comments_and_strings(self.raw)
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
        pos = 0
        while True:
            m = FUNC_NAME.search(text, pos)
            if not m:
                break
            name_tok = m.group(0)[:-1].strip()
            open_paren = m.end() - 1
            prev = text[:m.start()].rstrip()[-2:] if m.start() else ""
            simple = name_tok.split("::")[-1].strip()
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
            # skipping parenthesized groups (LTFB_REQUIRES(...), init lists).
            i, body_start, is_decl = after_args, -1, False
            while i < len(text):
                c = text[i]
                if c == "(":
                    j = match_paren(text, i)
                    if j < 0:
                        break
                    i = j
                    continue
                if c == "{":
                    body_start = i
                    break
                if c == ";":
                    is_decl = True
                    break
                if c in ")]}," or (c == "=" and not text.startswith("= 0", i)
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
            qual = name_tok.rsplit("::", 1)[0].split("::")[-1].strip() \
                if "::" in name_tok else None
            cls = qual or self.enclosing_class(m.start())
            if body_start >= 0:
                body_end = match_brace(text, body_start)
                self.functions.append(FunctionDef(
                    simple.lstrip("~"), cls, m.start(), body_start, body_end,
                    requires, acquires))
                if simple.startswith("~"):
                    self.functions[-1].name = "~" + self.functions[-1].name
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


def check_tags(tree: TreeModel, findings: list):
    scoped = [fm for fm in tree.files
              if tree.fixture_mode or not fm.rel.startswith("src/comm/")]
    tag_const_names = set()
    consts = []  # (name, value, subsystem, fm, ofs)
    for fm in scoped:
        for name, value, ofs in fm.tag_consts:
            tag_const_names.add(name)
            consts.append((name, value, fm.subsystem, fm, ofs))

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
        for m in ENDPOINT_RE.finditer(fm.text):
            open_paren = fm.text.index("(", m.end() - 1)
            close = match_paren(fm.text, open_paren)
            if close < 0:
                continue
            args = split_args(fm.text[open_paren + 1:close - 1])
            if m.group(2) == "deliver":
                tag_arg = deliver_tag_arg(args)
            else:
                tag_arg = args[1] if len(args) >= 2 else None
            if tag_arg is None:
                continue
            family = resolve_tag_family(tag_arg, fm, tag_const_names)
            entry = families.setdefault(family, {"send": [], "recv": []})
            kind = SEND_KINDS[m.group(2)]
            for k in (("send", "recv") if kind == "both" else (kind,)):
                entry[k].append((fm, m.start()))
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
    scoped = [fm for fm in tree.files
              if tree.fixture_mode or not fm.rel.startswith("src/comm/")]
    tag_const_names = set()
    for fm in scoped:
        for name, _value, _ofs in fm.tag_consts:
            tag_const_names.add(name)
    for fm in scoped:
        cmd_send_ofs = None
        bounded_ack_recv = False
        for m in ENDPOINT_RE.finditer(fm.text):
            open_paren = fm.text.index("(", m.end() - 1)
            close = match_paren(fm.text, open_paren)
            if close < 0:
                continue
            args = split_args(fm.text[open_paren + 1:close - 1])
            if m.group(2) == "deliver":
                tag_arg = deliver_tag_arg(args)
            else:
                tag_arg = args[1] if len(args) >= 2 else None
            if tag_arg is None:
                continue
            family = resolve_tag_family(tag_arg, fm, tag_const_names)
            if family[0] != "const":
                continue
            kind = SEND_KINDS[m.group(2)]
            if kind in ("send", "both") and SCHED_CMD_CONST.search(family[1]):
                if cmd_send_ofs is None:
                    cmd_send_ofs = m.start()
            if kind in ("recv", "both") and SCHED_ACK_CONST.search(family[1]):
                argtext = fm.text[open_paren + 1:close - 1]
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


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

ALL_RULES = ("tag-pairing", "tag-reuse", "comm-deadline", "sched-ack",
             "lock-order", "rank-binding", "guarded-field")


def build_tree(root: Path, files: list[Path], fixture_mode: bool) -> TreeModel:
    models = []
    for path in sorted(files):
        rel = path.relative_to(root).as_posix()
        if rel.endswith("util/annotations.hpp"):
            continue  # the vocabulary itself, not a subject
        parts = Path(rel).parts
        if fixture_mode:
            subsystem = parts[0] if len(parts) > 1 else Path(rel).stem
        else:
            subsystem = parts[1] if len(parts) > 1 and parts[0] == "src" \
                else parts[0]
        models.append(FileModel(path, rel, subsystem))
    return TreeModel(models, fixture_mode)


def run_rules(tree: TreeModel) -> list[Finding]:
    findings: list[Finding] = []
    check_tags(tree, findings)
    check_deadlines(tree, findings)
    check_sched_protocol(tree, findings)
    check_lock_order(tree, findings)
    check_rank_binding(tree, findings)
    check_guarded_fields(tree, findings)
    unique = {f.key(): f for f in findings}
    return sorted(unique.values(), key=Finding.key)


def scan_tree(root: Path) -> list[Finding]:
    src = root / "src"
    files = sorted(list(src.rglob("*.cpp")) + list(src.rglob("*.hpp")))
    if not files:
        return None
    return run_rules(build_tree(root, files, fixture_mode=False))


EXPECT_RE = re.compile(r"//\s*expect-finding:\s*([\w-]+)")


def run_fixtures(fixtures_dir: Path) -> bool:
    """Each top-level entry (file or directory) is analyzed in isolation and
    must produce exactly the rule set its expect-finding comments declare."""
    if not fixtures_dir.is_dir():
        print(f"ltfb_static: fixtures directory not found: {fixtures_dir}",
              file=sys.stderr)
        return False
    entries = sorted(fixtures_dir.iterdir(), key=lambda p: p.name)
    ok = True
    for entry in entries:
        if entry.name.startswith(".") or entry.suffix in (".md", ".txt"):
            continue
        files = [entry] if entry.is_file() else \
            sorted(list(entry.rglob("*.cpp")) + list(entry.rglob("*.hpp")))
        files = [f for f in files if f.suffix in (".cpp", ".hpp")]
        if not files:
            continue
        expected = set()
        for f in files:
            expected |= {m.group(1) for m in EXPECT_RE.finditer(f.read_text())}
        root = entry if entry.is_dir() else fixtures_dir
        findings = run_rules(build_tree(root, files, fixture_mode=True))
        fired = {f.rule for f in findings}
        missing = expected - fired
        extra = fired - expected
        if missing or extra:
            ok = False
            print(f"FAIL {entry.name}: expected {sorted(expected)}, "
                  f"fired {sorted(fired)}")
            for f in findings:
                print(f"    {f}")
        else:
            print(f"ok   {entry.name}: {sorted(fired) or '(clean)'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description="LTFB comm-protocol & concurrency-contract analyzer")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--fixtures", metavar="DIR",
                        help="run the known-bad fixture suite in DIR instead "
                             "of scanning the tree")
    parser.add_argument("--validate", action="store_true",
                        help="tree must be clean AND every fixture must fire")
    args = parser.parse_args()
    root = Path(args.root).resolve()

    if args.fixtures and not args.validate:
        return 0 if run_fixtures(Path(args.fixtures).resolve()) else 1

    if args.validate:
        findings = scan_tree(root)
        if findings is None:
            print("ltfb_static: no sources under src/", file=sys.stderr)
            return 1
        for f in findings:
            print(f)
        tree_clean = not findings
        print(f"tree: {'clean' if tree_clean else f'{len(findings)} finding(s)'}")
        fixtures_dir = Path(args.fixtures).resolve() if args.fixtures \
            else root / "tests" / "test_static_fixtures"
        fixtures_ok = run_fixtures(fixtures_dir)
        print(f"fixtures: {'ok' if fixtures_ok else 'FAILED'}")
        return 0 if (tree_clean and fixtures_ok) else 1

    findings = scan_tree(root)
    if findings is None:
        print("ltfb_static: no sources under src/", file=sys.stderr)
        return 126
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f)
        if findings:
            print(f"\nltfb_static: {len(findings)} finding(s)")
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main())
