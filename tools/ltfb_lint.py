#!/usr/bin/env python3
"""Repo-specific lint pass for the ltfb codebase.

Enforces invariants that clang-tidy cannot express (run as the `lint` ctest
target, so `ctest` and CI exercise it on every build):

  banned-call       src/ must not use std::rand/srand/time(nullptr)/assert()
                    (use util/rng and LTFB_ASSERT) or naked new/delete
                    (use containers / smart pointers).
  stdout            std::cout/std::cerr/printf are reserved for the
                    designated sinks (util/logging, util/table); libraries
                    must stay silent. bench/, examples/, tools/ are console
                    programs and exempt.
  include-hygiene   every header uses #pragma once; project includes are
                    quoted src/-relative paths (no "../", no <angle> form);
                    a .cpp includes its own header first so each header is
                    proven self-contained.
  comm-tags         the internal collective tag namespace (bit 62 set, see
                    Communicator::next_internal_tag) may only be minted
                    inside src/comm/communicator.cpp; user code must use
                    small non-negative int tags.
  entry-checks      public entry points of the concurrency substrate must
                    validate their arguments/state (LTFB_CHECK/LTFB_ASSERT
                    or an explicit throw) in their own body — the manifest
                    below names each one.
  matmul-nest       raw triple-nested multiply-accumulate loops are banned
                    outside src/tensor/: hand-rolled GEMMs silently bypass
                    the register-tiled, pool-threaded, conformance-tested
                    kernel (tensor::gemm/matmul) and its telemetry.
  isa-dispatch      raw ISA conditionals (__AVX2__/__SSE*/__ARM_NEON/
                    __aarch64__, the LTFB_SIMD_WIDTH macro, immintrin.h /
                    arm_neon.h includes) are banned outside
                    src/tensor/simd.hpp: all width dispatch goes through
                    the portable vec<W> wrapper so exactly one file knows
                    the target ISA and the scalar build stays honest.
  telemetry         src/, bench/ and examples/ must not spell util::Stopwatch
                    or include util/stopwatch.hpp directly (the shim exists
                    only for source compatibility; new timing goes through
                    src/telemetry), and every metric/span name literal handed
                    to the telemetry macros or Registry registration calls
                    must follow the subsystem/verb convention
                    ([a-z0-9_]+ segments joined by '/').

The comm-deadline and rank-bind rules that used to live here moved to
tools/ltfb_static.py, which models them properly (deadline dataflow through
local declarations; thread-launch call-site detection instead of a file
manifest) alongside the tag-pairing, lock-order and guarded-field protocol
checks.

Findings are reported per file in line order. Exit status is the number of
findings (0 = clean). `--list` prints the checked files; `--root` points at
the repo checkout (default: the parent of this script's directory).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SRC_EXTS = {".cpp", ".hpp"}

# Designated output sinks: the logging backend and the bench table printer.
STDOUT_ALLOWED = {"src/util/logging.cpp", "src/util/table.cpp"}

BANNED_PATTERNS = [
    (re.compile(r"\bstd::rand\b|\bsrand\s*\("), "banned-call",
     "std::rand/srand is banned; use util/rng.hpp (seeded, reproducible)"),
    (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"), "banned-call",
     "time(nullptr) is banned; timing comes from util/stopwatch.hpp and "
     "seeds from util/rng.hpp"),
    (re.compile(r"(?<![_\w.])assert\s*\("), "banned-call",
     "assert() is banned; use LTFB_ASSERT (stays live under "
     "LTFB_BOUNDS_CHECK) or LTFB_CHECK"),
    (re.compile(r"(?<![_\w])new\s+(?![(])[A-Za-z_]"), "banned-call",
     "naked new is banned; use std::make_unique/make_shared or a container"),
    (re.compile(r"(?<![_\w])delete\s+(?!;)[A-Za-z_(]"), "banned-call",
     "naked delete is banned; ownership belongs in smart pointers"),
]

STDOUT_PATTERN = re.compile(r"\bstd::(cout|cerr)\b|(?<![_\w.:])f?printf\s*\(")

# The internal tag namespace: bit 62, minted by next_internal_tag. Any other
# file computing tags this large would collide with collective traffic.
COMM_TAG_PATTERN = re.compile(r"<<\s*62\b|next_internal_tag")
COMM_TAG_ALLOWED = {"src/comm/communicator.cpp", "src/comm/communicator.hpp"}

# ISA knowledge is confined to the SIMD wrapper: everything else writes
# width-generic vec<W> code (tensor/simd.hpp) and is compiled at whatever
# width cmake/LtfbSimd.cmake selected. A raw __AVX2__ branch elsewhere
# would silently diverge between build configurations.
ISA_PATTERN = re.compile(
    r"__AVX\w*__|__SSE\w*__|__ARM_NEON\w*|__aarch64__"
    r"|\bLTFB_SIMD_WIDTH\b|immintrin\.h|arm_neon\.h")
ISA_ALLOWED = {"src/tensor/simd.hpp"}

# Public entry points of the concurrency substrate that must validate
# arguments/state in their own body. Maps file -> list of (display name,
# definition token). A token matches `Token (...) {` definitions; every
# definition of the token in the file is checked.
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

# The stopwatch shim is compatibility-only: new code names the telemetry
# clock directly. Tests are exempt (they assert the shim aliases correctly);
# the shim header itself is the one allowed definition site.
STOPWATCH_TOKEN = re.compile(r"\butil::Stopwatch\b")
STOPWATCH_INCLUDE = re.compile(
    r'^[ \t]*#[ \t]*include[ \t]+"util/stopwatch\.hpp"', re.MULTILINE)
STOPWATCH_ALLOWED = {"src/util/stopwatch.hpp"}

# Metric and span names are registered once and become JSON keys / Perfetto
# track labels; enforce the subsystem/verb convention at lint time so a typo
# never ships. Matches string literals passed to the telemetry macros and to
# Registry registration calls.
METRIC_NAME = re.compile(r"^[a-z0-9_]+(/[a-z0-9_]+)+$")
METRIC_CALL = re.compile(
    r"(?:\bLTFB_SPAN|\bLTFB_COUNTER_ADD|\bLTFB_GAUGE_SET"
    r"|\bLTFB_TIMER_RECORD|\bLTFB_TIMED_SCOPE"
    r"|\.\s*counter|\.\s*gauge|\.\s*timer|\brecord_sim_span)"
    r"\s*\(\s*\"([^\"]*)\"")

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


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks out comments and (unless keep_strings) string/char literals,
    preserving offsets and newlines so line numbers in findings stay
    accurate. A single quote directly after an identifier character is a
    C++14 digit separator (0x5bf0'3635ull), not a char literal."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        prev = text[i - 1] if i > 0 else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == "'" and (prev.isalnum() or prev == "_"):
            i += 1  # digit separator inside a numeric literal
        elif c in "\"'":
            quote = c
            if not keep_strings:
                out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    if not keep_strings:
                        out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n" and not keep_strings:
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n" and not keep_strings:
                    out[i] = " "
                i += 1
            if i < n:
                if not keep_strings:
                    out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def iter_sources(root: pathlib.Path, subdirs):
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SRC_EXTS and path.is_file():
                yield path


def check_banned_calls(rel: str, stripped: str, findings):
    if not rel.startswith("src/"):
        return
    for pattern, rule, message in BANNED_PATTERNS:
        for m in pattern.finditer(stripped):
            findings.append(Finding(rel, line_of(stripped, m.start()), rule,
                                    message))


def check_stdout(rel: str, stripped: str, findings):
    if not rel.startswith("src/") or rel in STDOUT_ALLOWED:
        return
    for m in STDOUT_PATTERN.finditer(stripped):
        findings.append(Finding(
            rel, line_of(stripped, m.start()), "stdout",
            "library code must not write to stdout/stderr directly; route "
            "through util/logging (or util/table for bench tables)"))


def check_comm_tags(rel: str, stripped: str, findings):
    if not rel.startswith("src/") or rel in COMM_TAG_ALLOWED:
        return
    for m in COMM_TAG_PATTERN.finditer(stripped):
        findings.append(Finding(
            rel, line_of(stripped, m.start()), "comm-tags",
            "the internal collective tag namespace (bit 62 / "
            "next_internal_tag) is reserved to src/comm/communicator.cpp"))


def check_isa_dispatch(rel: str, stripped: str, findings):
    if rel in ISA_ALLOWED:
        return
    for m in ISA_PATTERN.finditer(stripped):
        findings.append(Finding(
            rel, line_of(stripped, m.start()), "isa-dispatch",
            "raw ISA conditionals are reserved to src/tensor/simd.hpp; "
            "write width-generic code against tensor::simd::vec "
            "(kNativeWidth, main_loop_bound) instead"))


INCLUDE_PATTERN = re.compile(r'^[ \t]*#[ \t]*include[ \t]+([<"][^>"]+[>"])',
                             re.MULTILINE)

# Project headers live under src/<lib>/; their include form is the quoted
# src/-relative path.
PROJECT_INCLUDE_DIRS = ("util/", "tensor/", "comm/", "nn/", "jag/", "data/",
                        "datastore/", "gan/", "workflow/", "core/",
                        "simulator/", "perf/", "telemetry/")


def check_include_hygiene(root: pathlib.Path, rel: str, raw: str, stripped,
                          findings):
    if rel.endswith(".hpp") and "#pragma once" not in raw:
        findings.append(Finding(rel, 1, "include-hygiene",
                                "header is missing #pragma once"))
    includes = list(INCLUDE_PATTERN.finditer(stripped))
    for m in includes:
        spec = m.group(1)
        target = spec[1:-1]
        line = line_of(stripped, m.start())
        if target.startswith("../") or "/../" in target:
            findings.append(Finding(
                rel, line, "include-hygiene",
                f'include "{target}" must be a src/-relative path, not a '
                "parent-relative one"))
        if spec.startswith("<") and target.startswith(PROJECT_INCLUDE_DIRS):
            findings.append(Finding(
                rel, line, "include-hygiene",
                f"project header <{target}> must use the quoted include "
                "form"))
        if spec.startswith('"'):
            here = (root / rel).parent
            if not (root / "src" / target).is_file() and \
               not (here / target).is_file():
                findings.append(Finding(
                    rel, line, "include-hygiene",
                    f'quoted include "{target}" resolves neither under src/ '
                    "nor next to the including file (system headers use "
                    "<...>)"))
    # A library .cpp must include its own header first: that proves every
    # header compiles stand-alone (no hidden include-order dependencies).
    if rel.startswith("src/") and rel.endswith(".cpp") and includes:
        own = rel[len("src/"):-len(".cpp")] + ".hpp"
        if (root / "src" / own).is_file():
            first = includes[0].group(1)[1:-1]
            if first != own:
                findings.append(Finding(
                    rel, line_of(stripped, includes[0].start()),
                    "include-hygiene",
                    f'first include must be the file\'s own header "{own}" '
                    f'(found "{first}")'))


def find_function_bodies(stripped: str, token: str):
    """Yields (offset, header, body) for each definition
    `token (...) header {body}` — `header` is the text between the
    parameter list's closing paren and the body opener (constructor
    init-list, noexcept, trailing return type...).

    Works on comment/string-stripped text. Declarations (ending in `;`) are
    skipped. Constructor init-lists are handled by scanning from the
    argument list's closing paren to the first `{` or `;`.
    """
    for m in re.finditer(re.escape(token) + r"\s*\(", stripped):
        i = m.end() - 1  # at '('
        depth = 0
        n = len(stripped)
        while i < n:
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        # Scan forward to the body opener or a declaration terminator. An
        # init-list's member initialisers contain (...) groups; skip them.
        j = i + 1
        while j < n and stripped[j] != "{" and stripped[j] != ";":
            if stripped[j] == "(":
                d = 1
                j += 1
                while j < n and d:
                    if stripped[j] == "(":
                        d += 1
                    elif stripped[j] == ")":
                        d -= 1
                    j += 1
                continue
            j += 1
        if j >= n or stripped[j] == ";":
            continue
        # Brace-match the body.
        k = j
        depth = 0
        while k < n:
            if stripped[k] == "{":
                depth += 1
            elif stripped[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        yield m.start(), stripped[i + 1:j], stripped[j:k + 1]


def check_telemetry(rel: str, stripped: str, code_with_strings: str,
                    findings):
    if not rel.startswith(("src/", "bench/", "examples/")):
        return
    if rel not in STOPWATCH_ALLOWED:
        for m in STOPWATCH_TOKEN.finditer(stripped):
            findings.append(Finding(
                rel, line_of(stripped, m.start()), "telemetry",
                "util::Stopwatch is a compatibility shim; new code uses "
                "ltfb::telemetry::Stopwatch (or a telemetry timer/span)"))
        for m in STOPWATCH_INCLUDE.finditer(code_with_strings):
            findings.append(Finding(
                rel, line_of(code_with_strings, m.start()), "telemetry",
                'include "telemetry/telemetry.hpp" instead of the '
                '"util/stopwatch.hpp" shim'))
    for m in METRIC_CALL.finditer(code_with_strings):
        name = m.group(1)
        if not METRIC_NAME.match(name):
            findings.append(Finding(
                rel, line_of(code_with_strings, m.start()), "telemetry",
                f'metric name "{name}" violates the subsystem/verb '
                "convention ([a-z0-9_]+ segments joined by '/')"))


# A hand-rolled GEMM: the innermost of >= 3 nested for loops accumulating a
# product of two INDEXED operands (`a[..] * b[..]` or `a.at(..) * b.at(..)`).
# Requiring indexed-times-indexed keeps scalar accumulations (distance sums,
# dot products over fixed-size points) out of scope. Only src/tensor/ may
# contain one (the tiled kernel and its naive conformance reference).
FOR_LOOP = re.compile(r"\bfor\s*\(")
MAC_STATEMENT = re.compile(
    r"\+=[^;{}]*(?:\]\s*\*\s*[\w.>:-]*\[|\)\s*\*\s*[\w.>:-]*\()")


def _for_loop_extents(stripped: str):
    """Yields (for_offset, body_start, body_end) for every for loop. The
    body of a braced loop is its block; an unbraced loop's body runs to the
    statement-terminating ';' (so `for(..) for(..) for(..) s;` nests)."""
    n = len(stripped)
    for m in FOR_LOOP.finditer(stripped):
        i = m.end() - 1
        depth = 0
        while i < n:
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        j = i + 1
        while j < n and stripped[j].isspace():
            j += 1
        if j >= n:
            continue
        if stripped[j] == "{":
            k = j
            depth = 0
            while k < n:
                if stripped[k] == "{":
                    depth += 1
                elif stripped[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            yield m.start(), j, min(k + 1, n)
        else:
            k = j
            depth = 0
            while k < n:
                c = stripped[k]
                if c in "({":
                    depth += 1
                elif c in ")}":
                    depth -= 1
                elif c == ";" and depth <= 0:
                    break
                k += 1
            yield m.start(), j, min(k + 1, n)


def check_matmul_nest(rel: str, stripped: str, findings):
    if not rel.startswith("src/") or rel.startswith("src/tensor/"):
        return
    extents = list(_for_loop_extents(stripped))
    for start, body_start, body_end in extents:
        body = stripped[body_start:body_end]
        # Flag only the innermost loop of a nest: it holds the MAC statement
        # and no further for loop, so each nest reports once.
        if FOR_LOOP.search(body):
            continue
        if not MAC_STATEMENT.search(body):
            continue
        ancestors = sum(1 for s, b, e in extents
                        if s != start and b <= start < e)
        if ancestors >= 2:
            findings.append(Finding(
                rel, line_of(stripped, start), "matmul-nest",
                "raw triple-nested multiply-accumulate loop: use "
                "tensor::gemm/matmul (register-tiled, pool-threaded, "
                "conformance-tested) instead of a hand-rolled kernel"))


def check_entry_points(rel: str, stripped: str, findings):
    manifest = ENTRY_CHECK_MANIFEST.get(rel)
    if not manifest:
        return
    for display, token in manifest:
        bodies = list(find_function_bodies(stripped, token))
        if not bodies:
            findings.append(Finding(
                rel, 1, "entry-checks",
                f"manifest entry point {display} not found — update "
                "tools/ltfb_lint.py if it moved or was renamed"))
            continue
        for offset, header, body in bodies:
            if VALIDATION_KEYWORDS.search(body):
                continue
            if DELEGATION_BODY.match(body.strip()):
                continue  # one-line forwarder to a checked overload
            if (re.fullmatch(r"\{\s*\}", body.strip()) and
                    DELEGATING_CTOR.match(header)):
                continue  # delegating constructor: target validates
            findings.append(Finding(
                rel, line_of(stripped, offset), "entry-checks",
                f"public entry point {display} must validate its "
                "arguments/state (LTFB_CHECK / LTFB_ASSERT / throw)"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    parser.add_argument("--list", action="store_true",
                        help="print checked files and exit")
    args = parser.parse_args()
    root = args.root.resolve()

    findings: list[Finding] = []
    checked = 0
    for path in iter_sources(root, ["src", "tests", "bench", "examples"]):
        rel = path.relative_to(root).as_posix()
        if args.list:
            print(rel)
            continue
        raw = path.read_text(encoding="utf-8")
        stripped = strip_comments_and_strings(raw)
        # Include directives carry their paths in string literals, so the
        # hygiene pass works on comment-only stripped text.
        code_with_strings = strip_comments_and_strings(raw, keep_strings=True)
        checked += 1
        # Each check appends to a per-file list so one file's report comes
        # out in line order (not grouped by check) and duplicate findings
        # from overlapping checks collapse to one line.
        file_findings: list[Finding] = []
        check_banned_calls(rel, stripped, file_findings)
        check_stdout(rel, stripped, file_findings)
        check_comm_tags(rel, stripped, file_findings)
        check_include_hygiene(root, rel, raw, code_with_strings, file_findings)
        check_telemetry(rel, stripped, code_with_strings, file_findings)
        check_isa_dispatch(rel, code_with_strings, file_findings)
        check_matmul_nest(rel, stripped, file_findings)
        check_entry_points(rel, stripped, file_findings)
        unique = {(f.line, f.rule, f.message): f for f in file_findings}
        findings.extend(sorted(unique.values(),
                               key=lambda f: (f.line, f.rule, f.message)))

    if args.list:
        return 0
    if checked == 0:
        # A mistyped --root must not green-light the tree in CI.
        print(f"ltfb_lint: error: no sources found under {root}", file=sys.stderr)
        return 126
    for finding in findings:
        print(finding)
    print(f"ltfb_lint: {checked} files checked, {len(findings)} finding(s)")
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main())
