#!/usr/bin/env python3
"""sapkit-analyze: call-graph-aware semantic analysis for the sapkit tree.

sapkit-lint (tools/sapkit_lint) is lexical and per-line; this tool is its
flow-aware sibling.  It parses every translation unit under src/ with the
brace/scope-aware scanner in cppmodel.py, links the extracted functions
into one cross-TU call graph (callees resolved by name; overload sets are
merged conservatively), and checks the invariants that only hold *across*
functions:

  deadline-coverage    Solver loops must poll the deadline.  In the
                       deadline dirs (src/exact, src/ufpp, src/lp,
                       src/cert, src/round), any function with access to a
                       Deadline (parameter, options member, or class
                       member) whose loop nest has effective depth >= 2 —
                       nesting counts through callees — must reach a
                       Deadline/DeadlineGate .check()/.expired() inside
                       the loop, directly or within call depth 3.
  deadline-forwarding  A function with deadline access that calls a
                       deadline-accepting callee must pass the deadline
                       along (directly, via an options struct that carries
                       it, or via a gate built from it).  Dropping it
                       silently disables the caller's budget.
  arena-discipline     In the hot dirs (src/lp, src/exact, src/core,
                       src/ufpp, src/round), functions reachable from a
                       solver entry point (one that calls thread_arena(),
                       or takes an Arena, an arena-carrying options struct
                       or the *Options struct of a function that calls
                       thread_arena()) must not heap-allocate: no `new`,
                       no make_unique/make_shared, no growing std::vector/
                       std::string/node containers.  FlatBuf/FlatMat and
                       friends are the sanctioned arena plane.
  lock-order           In src/service and src/util, the lock-acquisition
                       graph (mutex A held while acquiring B, directly or
                       through calls) must be acyclic, and no mutex may be
                       re-acquired while already held.
  lock-blocking        While holding a lock, no blocking operation: solver
                       entry points, frame I/O (write_frame/read_frame),
                       socket calls, thread joins, sleeps, or condition
                       waits on a monitor other than the held lock.
  checked-arith        Expression-aware escalation of sapkit-lint's
                       exact-arith rule: raw `+`/`*` where BOTH operands
                       are quantity-valued and at least one is a
                       Value/Weight-typed variable whose *name* the
                       lexical rule cannot see.  Such statements must
                       route through util/checked.hpp or widen to Int128.

False positives are silenced with the same justified-allow grammar as
sapkit-lint, under this tool's own marker:

    // sapkit-analyze: allow(<rule>) -- <justification>
    // sapkit-analyze: begin-allow(<rule>) -- <justification>
    // sapkit-analyze: end-allow(<rule>)

A line-allow covers its own line and the next code line; a justification
is mandatory; an allow that suppresses nothing is itself an error
(unused-allow), so stale escapes rot into build failures.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cppmodel  # noqa: E402
from cppmodel import (  # noqa: E402
    ARENA_TYPES, DEADLINE_TYPES, FileModel, FunctionDef, NODE_CONTAINERS,
    STD_CONTAINERS, base_type_of,
)

# --------------------------------------------------------------------------
# Rule table and scopes (posix path prefixes relative to the repo root)
# --------------------------------------------------------------------------

DEADLINE_DIRS = ("src/exact", "src/ufpp", "src/lp", "src/cert", "src/round")
HOT_DIRS = ("src/lp", "src/exact", "src/core", "src/ufpp", "src/round")
LOCK_DIRS = ("src/service", "src/util")
EXACT_DIRS = ("src/model", "src/exact", "src/cert", "src/core", "src/round")
SOLVER_DIRS = ("src/core", "src/exact", "src/ufpp", "src/lp", "src/cert",
               "src/round", "src/dsa", "src/sapu", "src/knapsack")

RULE_SCOPES = {
    "deadline-coverage": DEADLINE_DIRS,
    "deadline-forwarding": DEADLINE_DIRS,
    "arena-discipline": HOT_DIRS,
    "lock-order": LOCK_DIRS,
    "lock-blocking": LOCK_DIRS,
    "checked-arith": EXACT_DIRS,
}
META_RULES = ("allow-syntax", "unused-allow")
ALL_RULES = tuple(RULE_SCOPES) + META_RULES

SOURCE_EXTENSIONS = (".cpp", ".hpp", ".cc", ".hh", ".h")

# How far through the call graph a deadline check may be (F -> G -> H with
# a check in H is depth 2).
MAX_CHECK_DEPTH = 3
# Effective loop depth (counting loops inside callees) at which a loop
# nest must poll the deadline.
LOOP_DEPTH_THRESHOLD = 2
# Depth of the transitive lock/blocking summaries folded into a caller.
LOCK_SUMMARY_DEPTH = 2

_DEADLINE_WORD_RE = re.compile(r"deadline|gate", re.IGNORECASE)

# Operations that block: frame/socket I/O, thread management, sleeps.
BLOCKING_NAMES = {
    "write_frame", "read_frame", "write_all", "read_all", "connect",
    "accept", "accept4", "send", "recv", "sendto", "recvfrom", "sendmsg",
    "recvmsg", "epoll_wait", "join", "sleep_for", "sleep_until", "flock",
    "fsync", "getaddrinfo",
}
_SOLVER_NAME_RE = re.compile(r"^(?:solve|certify)|_exact$")

# Mirrors of sapkit-lint's lexical tables (kept textually in sync; the two
# tools stay import-independent so each runs standalone).
_QUANTITY_RE = re.compile(
    r"(?:^|_)(?:demands?|weights?|heights?|capacity|capacities|"
    r"bottlenecks?)(?:_|$)"
)
_CHECKED_MARKERS = re.compile(
    r"\b(?:checked_\w+|__builtin_add_overflow|__builtin_sub_overflow|"
    r"__builtin_mul_overflow|Int128|Uint128)\b"
)
_UNARY_PREV = {
    None, "(", "[", "{", ",", ";", "=", "return", "case", "<", ">", "<=",
    ">=", "==", "!=", "&&", "||", "!", "?", ":", "+", "-", "*", "/", "%",
    "<<", ">>", "+=", "-=", "*=", "/=", "%=", "&", "|", "^", "&&=", "::",
}
_TYPE_PREV_RE = re.compile(
    r"^(?:long|int|short|signed|unsigned|char|bool|void|auto|const|constexpr"
    r"|Value|Weight|EdgeId|TaskId|Int128|Uint128|std|size_t|ptrdiff_t"
    r"|\w+_t|uint\d+|int\d+|double|float)$"
)
QUANTITY_TYPES = {"Value", "Weight"}

_ALLOW_RE = re.compile(
    r"//\s*sapkit-analyze:\s*(allow|begin-allow|end-allow)\s*"
    r"\(\s*([A-Za-z0-9_-]*)\s*\)\s*(?:--\s*(.*\S))?\s*$"
)
_ALLOW_ANY_RE = re.compile(r"//\s*sapkit-analyze\b")

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclasses.dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class Allow:
    rule: str
    line: int
    end: int
    used: bool = False


def collect_allows(raw_lines: list[str], path: str
                   ) -> tuple[list[Allow], list[Finding]]:
    """Same grammar and semantics as sapkit_lint.collect_allows, under the
    sapkit-analyze marker and this tool's rule table."""
    allows: list[Allow] = []
    findings: list[Finding] = []
    open_regions: dict[str, Allow] = {}
    for lineno, line in enumerate(raw_lines, start=1):
        if not _ALLOW_ANY_RE.search(line):
            continue
        m = _ALLOW_RE.search(line)
        if not m:
            findings.append(Finding(
                path, lineno, "allow-syntax",
                "malformed sapkit-analyze comment (want "
                "'// sapkit-analyze: allow(<rule>) -- <justification>')"))
            continue
        kind, rule, justification = m.group(1), m.group(2), m.group(3)
        if rule not in RULE_SCOPES:
            findings.append(Finding(
                path, lineno, "allow-syntax",
                f"unknown rule '{rule}' (known: {', '.join(RULE_SCOPES)})"))
            continue
        if kind == "end-allow":
            region = open_regions.pop(rule, None)
            if region is None:
                findings.append(Finding(
                    path, lineno, "allow-syntax",
                    f"end-allow({rule}) without a matching begin-allow"))
            else:
                region.end = lineno
                allows.append(region)
            continue
        if not justification:
            findings.append(Finding(
                path, lineno, "allow-syntax",
                f"{kind}({rule}) needs a justification: "
                f"'... {kind}({rule}) -- <why this is safe>'"))
            continue
        if kind == "allow":
            end = lineno + 1
            while end <= len(raw_lines) and \
                    raw_lines[end - 1].lstrip().startswith("//"):
                end += 1
            allows.append(Allow(rule, lineno, end))
        else:
            if rule in open_regions:
                findings.append(Finding(
                    path, lineno, "allow-syntax",
                    f"begin-allow({rule}) nested inside an open "
                    f"begin-allow({rule}) region"))
            else:
                open_regions[rule] = Allow(rule, lineno, lineno)
    for rule, region in sorted(open_regions.items()):
        findings.append(Finding(
            path, region.line, "allow-syntax",
            f"begin-allow({rule}) is never closed (missing "
            f"'// sapkit-analyze: end-allow({rule})')"))
    return allows, findings


# --------------------------------------------------------------------------
# Program model
# --------------------------------------------------------------------------

def in_dirs(rel_path: str, dirs: tuple[str, ...]) -> bool:
    posix = rel_path.replace(os.sep, "/")
    return any(posix == d or posix.startswith(d + "/") for d in dirs)


class Program:
    """All parsed files, the merged member table, and the call graph."""

    def __init__(self) -> None:
        self.files: list[FileModel] = []
        self.members: dict[str, dict[str, str]] = {}
        self.by_name: dict[str, list[FunctionDef]] = {}
        self.raw_lines: dict[str, list[str]] = {}
        self.code_lines: dict[str, list[str]] = {}
        self.deadline_opt_types: set[str] = set()
        self.arena_opt_types: set[str] = set()

    @classmethod
    def build(cls, root: str) -> "Program":
        prog = cls()
        texts: list[tuple[str, str, str]] = []   # (abs, rel, text)
        src = os.path.join(root, "src")
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTENSIONS):
                    continue
                abs_path = os.path.join(dirpath, name)
                rel = os.path.relpath(abs_path, root).replace(os.sep, "/")
                try:
                    with open(abs_path, encoding="utf-8") as f:
                        text = f.read()
                except (OSError, UnicodeDecodeError):
                    continue
                texts.append((abs_path, rel, text))
        # Pass A: collect class members from every TU so method bodies in
        # .cpp files resolve members declared in headers.
        for abs_path, rel, text in texts:
            cppmodel.parse_file(abs_path, rel, text, prog.members)
        # Pass B: extract bodies against the complete member table.
        for abs_path, rel, text in texts:
            model = cppmodel.parse_file(abs_path, rel, text, prog.members)
            prog.files.append(model)
            prog.raw_lines[rel] = text.split("\n")
            prog.code_lines[rel] = cppmodel.strip_comments_and_strings(text)
            for func in model.functions:
                prog.by_name.setdefault(func.name, []).append(func)
        for cls_name, members in prog.members.items():
            types = set(members.values())
            if types & DEADLINE_TYPES:
                prog.deadline_opt_types.add(cls_name)
            if "Arena" in types:
                prog.arena_opt_types.add(cls_name)
        # A solver that opens its own arena scope (calls thread_arena())
        # names its options struct *Options; taking one runs that solve.
        for func in (f for m in prog.files for f in m.functions):
            if func.has_thread_arena:
                for p in func.params:
                    ptype = base_type_of(p.type_tokens)
                    if ptype.endswith("Options"):
                        prog.arena_opt_types.add(ptype)
        return prog

    def resolve_type(self, func: FunctionDef, name: str) -> str:
        if not name:
            return ""
        if name in func.locals and func.locals[name]:
            return func.locals[name]
        for p in func.params:
            if p.name == name:
                return base_type_of(p.type_tokens)
        if func.cls and name in self.members.get(func.cls, {}):
            return self.members[func.cls][name]
        hits = {m[name] for m in self.members.values() if name in m}
        if len(hits) == 1:
            return hits.pop()
        return ""

    def defs_of(self, name: str) -> list[FunctionDef]:
        return self.by_name.get(name, [])

    def defs_for_call(self, func: FunctionDef, call) -> list[FunctionDef]:
        """Call-graph edge resolution.  Bare-name matching plus two
        precision filters: method-call syntax only resolves to methods (and
        when the receiver's type resolves, only to methods of that class),
        and receiver-less calls resolve to free functions or to methods of
        the calling class (implicit this)."""
        qual = getattr(call, "qualifier", None)
        if qual is not None:
            # ::name() reaches the C library; std::name() the standard
            # library.  Class-qualified calls resolve to that class only.
            if qual in ("", "std"):
                return []
            return [g for g in self.by_name.get(call.name, [])
                    if g.cls == qual]
        defs = self.by_name.get(call.name, [])
        if not defs:
            return []
        rtype = ""
        if call.is_method:
            recv = call.receiver_member or call.receiver_base or ""
            if recv not in ("", "this"):
                rtype = self.resolve_type(func, recv)
        out = []
        for g in defs:
            if g.cls is None:
                if not call.is_method:
                    out.append(g)
            elif call.is_method:
                if not rtype or rtype == g.cls:
                    out.append(g)
            elif func.cls == g.cls:
                out.append(g)
        return out


# --------------------------------------------------------------------------
# Deadline passes
# --------------------------------------------------------------------------

def deadline_sources(func: FunctionDef, prog: Program) -> set[str]:
    """Names through which `func` can reach a live deadline: parameters of
    Deadline/gate/options type, and (for methods) class members."""
    carrier_types = DEADLINE_TYPES | prog.deadline_opt_types
    names = {p.name for p in func.params
             if p.name and base_type_of(p.type_tokens) in carrier_types}
    if func.cls:
        for mname, mtype in prog.members.get(func.cls, {}).items():
            if mtype in carrier_types:
                names.add(mname)
    return names


def accepts_deadline(func: FunctionDef, prog: Program) -> bool:
    carrier_types = DEADLINE_TYPES | prog.deadline_opt_types
    return any(base_type_of(p.type_tokens) in carrier_types
               for p in func.params)


def compute_check_depths(prog: Program) -> dict[int, int]:
    """depth[f] = minimum number of call edges from f to a direct
    Deadline/DeadlineGate check (0 = checks itself), capped at
    MAX_CHECK_DEPTH; absent = unreachable."""
    depth: dict[int, int] = {}
    funcs = [f for m in prog.files for f in m.functions]
    for f in funcs:
        if f.check_indices:
            depth[id(f)] = 0
    for _ in range(MAX_CHECK_DEPTH):
        changed = False
        for f in funcs:
            best = depth.get(id(f), MAX_CHECK_DEPTH + 1)
            for call in f.calls:
                for g in prog.defs_for_call(f, call):
                    d = depth.get(id(g))
                    if d is not None and d + 1 < best:
                        best = d + 1
            if best <= MAX_CHECK_DEPTH and best < depth.get(
                    id(f), MAX_CHECK_DEPTH + 1):
                depth[id(f)] = best
                changed = True
        if not changed:
            break
    return depth


def compute_loop_depths(prog: Program) -> tuple[dict[int, int],
                                                dict[int, dict[int, int]]]:
    """(per-function effective loop depth, per-function map of loop-id ->
    effective depth).  A loop's effective depth counts loops reached
    through direct calls inside it; everything is capped at 3 and solved
    by a short fixpoint."""
    funcs = [f for m in prog.files for f in m.functions]
    fn_depth = {id(f): 0 for f in funcs}
    loop_eff: dict[int, dict[int, int]] = {id(f): {} for f in funcs}
    cap = 3
    for _ in range(cap + 1):
        changed = False
        for f in funcs:
            per_loop: dict[int, int] = {}
            # Deepest-first so children are solved before parents.
            for loop in sorted(f.loops, key=lambda l: -l.depth):
                inner = 0
                for child in f.loops:
                    if child.depth == loop.depth + 1 and \
                            loop.body[0] <= child.body[0] and \
                            child.body[1] <= loop.body[1]:
                        inner = max(inner, per_loop.get(id(child), 1))
                for call in f.calls:
                    if not (loop.body[0] <= call.index < loop.body[1]):
                        continue
                    in_child = any(
                        c.depth == loop.depth + 1 and
                        c.body[0] <= call.index < c.body[1]
                        for c in f.loops)
                    if in_child:
                        continue
                    for g in prog.defs_for_call(f, call):
                        inner = max(inner, fn_depth[id(g)])
                per_loop[id(loop)] = min(cap, 1 + inner)
            new_depth = min(cap, max(
                (per_loop[id(l)] for l in f.loops if l.depth == 1),
                default=0))
            loop_eff[id(f)] = per_loop
            if new_depth != fn_depth[id(f)]:
                fn_depth[id(f)] = new_depth
                changed = True
        if not changed:
            break
    return fn_depth, loop_eff


def pass_deadline_coverage(prog: Program) -> list[Finding]:
    findings: list[Finding] = []
    check_depth = compute_check_depths(prog)
    _, loop_eff = compute_loop_depths(prog)
    for model in prog.files:
        if not in_dirs(model.path, DEADLINE_DIRS):
            continue
        for func in model.functions:
            if not deadline_sources(func, prog):
                continue
            effs = loop_eff[id(func)]
            for loop in func.loops:
                if loop.depth != 1:
                    continue
                if effs.get(id(loop), 1) < LOOP_DEPTH_THRESHOLD:
                    continue
                lo, hi = loop.body
                covered = any(lo <= idx < hi for idx in func.check_indices)
                if not covered:
                    for call in func.calls:
                        if not (lo <= call.index < hi):
                            continue
                        best = min(
                            (check_depth.get(id(g), MAX_CHECK_DEPTH + 1)
                             for g in prog.defs_for_call(func, call)),
                            default=MAX_CHECK_DEPTH + 1)
                        if best <= MAX_CHECK_DEPTH - 1:
                            covered = True
                            break
                if not covered:
                    findings.append(Finding(
                        model.path, loop.line, "deadline-coverage",
                        f"loop nest in '{func.qualname}' (effective depth "
                        f"{effs.get(id(loop), 1)}) never reaches a "
                        "Deadline/DeadlineGate check within call depth "
                        f"{MAX_CHECK_DEPTH}; poll options.deadline or a "
                        "DeadlineGate inside the loop"))
    return findings


def pass_deadline_forwarding(prog: Program) -> list[Finding]:
    findings: list[Finding] = []
    for model in prog.files:
        if not in_dirs(model.path, DEADLINE_DIRS):
            continue
        for func in model.functions:
            sources = deadline_sources(func, prog)
            if not sources:
                continue
            carriers = set(sources)
            opt_types = prog.deadline_opt_types
            for name, btype in func.locals.items():
                if btype in DEADLINE_TYPES:
                    carriers.add(name)
                elif btype in opt_types:
                    init = func.local_init.get(name, "")
                    init_ids = set(init.split())
                    if f"{name}.deadline" in func.dotted_assigns or \
                            (init_ids & sources) or \
                            any(_DEADLINE_WORD_RE.search(t)
                                for t in init_ids):
                        carriers.add(name)
            seen: set[tuple[str, int]] = set()
            for call in func.calls:
                defs = prog.defs_for_call(func, call)
                if not defs or all(g is func for g in defs):
                    continue
                if not any(accepts_deadline(g, prog) for g in defs):
                    continue
                lo, hi = call.args
                arg_ids = {t.text for t in model.toks[lo:hi]
                           if _IDENT_RE.match(t.text)}
                ok = bool(arg_ids & carriers) or \
                    any(_DEADLINE_WORD_RE.search(t) for t in arg_ids)
                if ok:
                    continue
                key = (call.name, call.line)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    model.path, call.line, "deadline-forwarding",
                    f"'{func.qualname}' has a deadline but calls "
                    f"'{call.name}' (which accepts one) without passing it "
                    "— the callee will run unbudgeted"))
    return findings


# --------------------------------------------------------------------------
# Arena pass
# --------------------------------------------------------------------------

def arena_entry_points(prog: Program) -> list[FunctionDef]:
    entries = []
    carrier_types = {"Arena"} | prog.arena_opt_types
    for model in prog.files:
        if not in_dirs(model.path, HOT_DIRS):
            continue
        for func in model.functions:
            if func.has_thread_arena or any(
                    base_type_of(p.type_tokens) in carrier_types
                    for p in func.params):
                entries.append(func)
    return entries


def pass_arena_discipline(prog: Program) -> list[Finding]:
    findings: list[Finding] = []
    entries = arena_entry_points(prog)
    # BFS over the call graph; remember one entry point per function for
    # the finding message.
    origin: dict[int, str] = {}
    queue: list[FunctionDef] = []
    for e in entries:
        if id(e) not in origin:
            origin[id(e)] = e.qualname
            queue.append(e)
    while queue:
        f = queue.pop(0)
        for call in f.calls:
            for g in prog.defs_for_call(f, call):
                if id(g) not in origin:
                    origin[id(g)] = origin[id(f)]
                    queue.append(g)
    for model in prog.files:
        if not in_dirs(model.path, HOT_DIRS):
            continue
        for func in model.functions:
            if id(func) not in origin:
                continue
            seen: set[tuple[str, str]] = set()
            for alloc in func.allocs:
                if alloc.kind == "grow":
                    rtype = ""
                    if alloc.base:
                        # ctx.next.resize(...): resolve 'next' inside the
                        # class of 'ctx', which beats the bare-name lookup
                        # when several classes share a member name.
                        btype = prog.resolve_type(func, alloc.base)
                        rtype = prog.members.get(btype, {}).get(
                            alloc.owner, "")
                    if not rtype:
                        rtype = prog.resolve_type(func, alloc.owner)
                    if rtype in ARENA_TYPES:
                        continue
                    if rtype and rtype not in STD_CONTAINERS:
                        continue
                key = (alloc.kind, alloc.owner)
                if key in seen:
                    continue
                seen.add(key)
                via = origin[id(func)]
                reach = "a solver entry point" if via == func.qualname \
                    else f"solver entry '{via}'"
                findings.append(Finding(
                    model.path, alloc.line, "arena-discipline",
                    f"heap allocation ({alloc.detail}) in "
                    f"'{func.qualname}', reached from {reach}: hot paths "
                    "allocate from the Arena (FlatBuf/FlatMat, "
                    "src/util/arena.hpp)"))
    return findings


# --------------------------------------------------------------------------
# Lock passes
# --------------------------------------------------------------------------

def _direct_lock_keys(func: FunctionDef) -> set[str]:
    keys: set[str] = set()
    for site in func.locks:
        keys.update(site.mutex_keys)
    return keys


def _transitive(prog: Program, seed, depth: int):
    """Folds per-function sets through the call graph `depth` levels."""
    funcs = [f for m in prog.files for f in m.functions]
    acc = {id(f): set(seed(f)) for f in funcs}
    for _ in range(depth):
        nxt = {}
        for f in funcs:
            s = set(acc[id(f)])
            for call in f.calls:
                for g in prog.defs_for_call(f, call):
                    s |= acc[id(g)]
            nxt[id(f)] = s
        acc = nxt
    return acc


def _blocking_reason(call, func: FunctionDef, prog: Program,
                     fn_loop_depth: dict[int, int],
                     held_lock_vars: set[str]) -> str | None:
    if call.name in ("wait", "wait_for", "wait_until"):
        # cv.wait(lk, pred) on the held unique_lock is the sanctioned
        # monitor idiom; waiting on anything else while holding a lock is
        # a foreign-monitor wait.
        first_arg = None
        for t in func_arg_tokens(func, call, prog):
            first_arg = t
            break
        if first_arg is not None and first_arg in held_lock_vars:
            return None
        return f"condition wait '{call.name}' on a foreign monitor"
    if call.name in BLOCKING_NAMES:
        return f"blocking call '{call.name}'"
    for g in prog.defs_for_call(func, call):
        if in_dirs(g.path, SOLVER_DIRS) and (
                _SOLVER_NAME_RE.search(g.name) or
                fn_loop_depth.get(id(g), 0) >= 2):
            return f"solver call '{g.qualname}' ({g.path})"
    return None


def func_arg_tokens(func: FunctionDef, call, prog: Program):
    model_toks = None
    for model in prog.files:
        if model.path == func.path:
            model_toks = model.toks
            break
    if model_toks is None:
        return
    lo, hi = call.args
    depth = 0
    for tok in model_toks[lo:hi]:
        t = tok.text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == "," and depth == 0:
            return
        if _IDENT_RE.match(t):
            yield t


def pass_locks(prog: Program) -> list[Finding]:
    findings: list[Finding] = []
    trans_locks = _transitive(prog, _direct_lock_keys, LOCK_SUMMARY_DEPTH)
    fn_loop_depth, _ = compute_loop_depths(prog)

    # Transitive blocking summaries (names only; foreign-monitor waits are
    # judged in the frame of the function that holds the lock).
    def _direct_blocking(f: FunctionDef) -> set[str]:
        out = set()
        for call in f.calls:
            reason = _blocking_reason(call, f, prog, fn_loop_depth,
                                      held_lock_vars=set(
                                          s.lock_var for s in f.locks))
            if reason is not None and not reason.startswith("condition"):
                out.add(reason)
        return out

    trans_blocking = _transitive(prog, _direct_blocking, LOCK_SUMMARY_DEPTH)

    edges: dict[tuple[str, str], tuple[str, int, str]] = {}
    for model in prog.files:
        if not in_dirs(model.path, LOCK_DIRS):
            continue
        for func in model.functions:
            seen_block: set[tuple[str, str]] = set()
            for site in func.locks:
                held_vars = {s.lock_var
                             for s in func.locks
                             if s.lock_var and
                             s.index <= site.index < s.hold_end}
                held_vars.add(site.lock_var)
                # Nested direct acquisitions.
                for other in func.locks:
                    if other is site:
                        continue
                    if not (site.index < other.index < site.hold_end):
                        continue
                    for a in site.mutex_keys:
                        for b in other.mutex_keys:
                            if a == b:
                                findings.append(Finding(
                                    model.path, other.line, "lock-order",
                                    f"mutex '{a}' re-acquired in "
                                    f"'{func.qualname}' while already held "
                                    f"(first taken line {site.line}); "
                                    "std::mutex is not recursive"))
                            else:
                                edges.setdefault((a, b), (
                                    model.path, other.line,
                                    f"'{func.qualname}' takes '{b}' while "
                                    f"holding '{a}'"))
                for call in func.calls:
                    if not (site.index < call.index < site.hold_end):
                        continue
                    # Transitive acquisitions through the callee.
                    for g in prog.defs_for_call(func, call):
                        for b in trans_locks[id(g)]:
                            for a in site.mutex_keys:
                                if a == b:
                                    findings.append(Finding(
                                        model.path, call.line, "lock-order",
                                        f"'{func.qualname}' holds '{a}' and "
                                        f"calls '{call.name}' which "
                                        "acquires it again; std::mutex is "
                                        "not recursive"))
                                else:
                                    edges.setdefault((a, b), (
                                        model.path, call.line,
                                        f"'{func.qualname}' calls "
                                        f"'{call.name}' (acquires '{b}') "
                                        f"while holding '{a}'"))
                    # Blocking operations under the lock.
                    reason = _blocking_reason(call, func, prog,
                                              fn_loop_depth, held_vars)
                    if reason is None:
                        for g in prog.defs_for_call(func, call):
                            inner = trans_blocking[id(g)]
                            if inner:
                                reason = (f"'{call.name}' which reaches "
                                          f"{sorted(inner)[0]}")
                                break
                    if reason is not None:
                        key = (site.mutex_keys[0] if site.mutex_keys
                               else "?", call.name)
                        if key in seen_block:
                            continue
                        seen_block.add(key)
                        held = ", ".join(site.mutex_keys) or "a lock"
                        findings.append(Finding(
                            model.path, call.line, "lock-blocking",
                            f"'{func.qualname}' performs {reason} while "
                            f"holding '{held}' (taken line {site.line}); "
                            "move the blocking work outside the critical "
                            "section"))

    findings.extend(_lock_cycles(edges))
    return findings


def _lock_cycles(edges: dict[tuple[str, str], tuple[str, int, str]]
                 ) -> list[Finding]:
    graph: dict[str, set[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    # Tarjan SCC, iterative.
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(v0: str) -> None:
        work = [(v0, iter(sorted(graph[v0])))]
        index[v0] = low[v0] = counter[0]
        counter[0] += 1
        stack.append(v0)
        on_stack.add(v0)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)

    findings = []
    for comp in sccs:
        if len(comp) < 2:
            continue
        comp_set = set(comp)
        comp_edges = sorted(
            (path, line, why) for (a, b), (path, line, why) in edges.items()
            if a in comp_set and b in comp_set)
        path, line, _ = comp_edges[0]
        cycle = " -> ".join(sorted(comp_set))
        detail = "; ".join(why for _, _, why in comp_edges)
        findings.append(Finding(
            path, line, "lock-order",
            f"lock-order cycle between {{{cycle}}}: {detail} — threads "
            "taking these in different orders can deadlock"))
    return findings


# --------------------------------------------------------------------------
# Checked-arith pass
# --------------------------------------------------------------------------

_ARITH_OPS = {"+", "*", "+=", "*="}


def _operand_left(toks, idx: int, func: FunctionDef, prog: Program
                  ) -> tuple[bool, bool, str]:
    """(is_quantity, is_typed_var_with_nonvocab_name, display_name) for the
    operand ending just before toks[idx] (the operator)."""
    k = idx - 1
    if k < 0:
        return False, False, ""
    t = toks[k].text
    if t == ")":
        # A call result: classify by the callee/member name.
        k = cppmodel._match_back(toks, k, "(", ")") - 1
        if k >= 0 and _IDENT_RE.match(toks[k].text):
            name = toks[k].text
            return bool(_QUANTITY_RE.search(name)), False, name
        return False, False, ""
    if t == "]":
        k = cppmodel._match_back(toks, k, "[", "]") - 1
        if k < 0 or not _IDENT_RE.match(toks[k].text):
            return False, False, ""
        t = toks[k].text
    if not _IDENT_RE.match(t):
        return False, False, ""
    name = t
    vocab = bool(_QUANTITY_RE.search(name))
    rtype = prog.resolve_type(func, name)
    typed = rtype in QUANTITY_TYPES
    return vocab or typed, typed and not vocab, name


def _operand_right(toks, idx: int, func: FunctionDef, prog: Program
                   ) -> tuple[bool, bool, str]:
    n = len(toks)
    k = idx + 1
    while k < n and toks[k].text in ("+", "-", "~", "!"):
        k += 1
    if k >= n or not _IDENT_RE.match(toks[k].text):
        return False, False, ""
    name = toks[k].text
    # Follow a member/index chain to its final component.
    chained = False
    is_call = False
    while k + 1 < n:
        nxt = toks[k + 1].text
        if nxt in (".", "->") and k + 2 < n and \
                _IDENT_RE.match(toks[k + 2].text):
            name = toks[k + 2].text
            k += 2
            chained = True
            continue
        if nxt == "[":
            k = cppmodel._match_forward(toks, k + 1, "[", "]") - 1
            continue
        if nxt == "(":
            is_call = True
        break
    vocab = bool(_QUANTITY_RE.search(name))
    if is_call:
        return vocab, False, name
    # For a member chain like `t.demand`, `name` is the final component;
    # resolve_type finds it in the member table just as it would a local.
    rtype = prog.resolve_type(func, name)
    typed = rtype in QUANTITY_TYPES
    return vocab or typed, typed and not vocab, name


_LINT_ARITH_ALLOW = re.compile(
    r"//\s*sapkit-lint:\s*(allow|begin-allow|end-allow)\(([^)]*)\)")


def lint_exact_arith_lines(raw_lines: list[str]) -> set[int]:
    """1-based lines sanctioned by sapkit-lint's `exact-arith` allows.

    checked-arith is the expression-aware upgrade of that lexical rule, so a
    justification already accepted by the linter covers the semantic finding
    too — one allow, both tools.  Mirrors the linter's scope rules: a line
    allow covers its own line plus the next code line (skipping `//`
    continuations); begin/end covers the region.
    """
    out: set[int] = set()
    region = False
    pending = 0  # line allows waiting for their next code line
    for lineno, raw in enumerate(raw_lines, start=1):
        m = _LINT_ARITH_ALLOW.search(raw)
        if m and "exact-arith" in m.group(2):
            kind = m.group(1)
            if kind == "begin-allow":
                region = True
            elif kind == "end-allow":
                region = False
                out.add(lineno)
            else:
                out.add(lineno)
                pending += 1
            continue
        if region:
            out.add(lineno)
            continue
        if pending:
            if raw.strip().startswith("//"):
                continue  # justification continuation
            out.add(lineno)
            pending = 0
    return out


def pass_checked_arith(prog: Program) -> list[Finding]:
    findings: list[Finding] = []
    for model in prog.files:
        if not in_dirs(model.path, EXACT_DIRS):
            continue
        code_lines = prog.code_lines[model.path]
        lint_allowed = lint_exact_arith_lines(prog.raw_lines[model.path])
        flagged: set[int] = set()
        for func in model.functions:
            lo, hi = func.body
            toks = model.toks
            for idx in range(lo, hi):
                t = toks[idx].text
                if t not in _ARITH_OPS:
                    continue
                line = toks[idx].line
                if line in flagged or line in lint_allowed:
                    continue
                if line - 1 < len(code_lines) and \
                        _CHECKED_MARKERS.search(code_lines[line - 1]):
                    continue
                prev = toks[idx - 1].text if idx > 0 else None
                if t in ("+", "*") and prev in _UNARY_PREV:
                    continue
                if t == "*" and prev is not None and \
                        _TYPE_PREV_RE.match(prev):
                    continue
                lq, ltyped, lname = _operand_left(toks, idx, func, prog)
                rq, rtyped, rname = _operand_right(toks, idx, func, prog)
                if not (lq and rq and (ltyped or rtyped)):
                    continue
                flagged.add(line)
                findings.append(Finding(
                    model.path, line, "checked-arith",
                    f"raw '{t}' on quantity-typed operands "
                    f"'{lname}'/'{rname}' in '{func.qualname}': route "
                    "through checked_add/checked_mul "
                    "(src/util/checked.hpp) or widen to Int128"))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

PASSES = {
    "deadline-coverage": pass_deadline_coverage,
    "deadline-forwarding": pass_deadline_forwarding,
    "arena-discipline": pass_arena_discipline,
    "checked-arith": pass_checked_arith,
}
# lock-order and lock-blocking share one pass.


def run_analysis(root: str, rules: tuple[str, ...]) -> list[Finding]:
    prog = Program.build(root)
    findings: list[Finding] = []
    for rule in rules:
        if rule in PASSES:
            findings.extend(PASSES[rule](prog))
    if "lock-order" in rules or "lock-blocking" in rules:
        lock_findings = pass_locks(prog)
        findings.extend(f for f in lock_findings if f.rule in rules)
    return findings


def apply_allows(findings: list[Finding], prog_root: str,
                 report_paths: set[str] | None) -> list[Finding]:
    """Filters findings through per-file allow comments and appends
    allow-syntax / unused-allow meta findings for every file that carries
    a sapkit-analyze comment or a finding."""
    by_file: dict[str, list[Finding]] = {}
    for f in findings:
        by_file.setdefault(f.path, []).append(f)

    out: list[Finding] = []
    # Every source file needs its allows checked (a stale allow in a file
    # with no findings must still rot), so walk the tree.
    src = os.path.join(prog_root, "src")
    all_rel: list[str] = []
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTENSIONS):
                abs_path = os.path.join(dirpath, name)
                all_rel.append(
                    os.path.relpath(abs_path, prog_root).replace(os.sep, "/"))
    for rel in all_rel:
        if report_paths is not None and rel not in report_paths:
            continue
        try:
            with open(os.path.join(prog_root, rel), encoding="utf-8") as f:
                raw_lines = f.read().split("\n")
        except (OSError, UnicodeDecodeError):
            continue
        allows, meta = collect_allows(raw_lines, rel)
        out.extend(meta)
        for finding in by_file.get(rel, []):
            allow = next((a for a in allows
                          if a.rule == finding.rule and
                          a.line <= finding.line <= a.end), None)
            if allow is not None:
                allow.used = True
            else:
                out.append(finding)
        for allow in allows:
            if not allow.used:
                out.append(Finding(
                    rel, allow.line, "unused-allow",
                    f"allow({allow.rule}) suppresses nothing; delete it "
                    "(stale escapes hide future regressions)"))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="sapkit_analyze",
        description="Call-graph-aware semantic analysis for the sapkit "
                    "tree (sibling to sapkit_lint).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to report on "
                             "(default: <root>/src); the whole of "
                             "<root>/src is always parsed for the call "
                             "graph")
    parser.add_argument("--root", default=".",
                        help="repository root; rule scopes are evaluated "
                             "on paths relative to it (default: cwd)")
    parser.add_argument("--rules",
                        help="comma-separated rule list to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            scope = ", ".join(RULE_SCOPES.get(rule, ("everywhere",)))
            print(f"{rule:20s} {scope}")
        return 0

    rules: tuple[str, ...] = tuple(RULE_SCOPES)
    if args.rules is not None:
        rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
        unknown = [r for r in rules if r not in RULE_SCOPES]
        if unknown:
            print(f"sapkit_analyze: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    root = os.path.abspath(args.root)
    report_paths: set[str] | None = None
    if args.paths:
        report_paths = set()
        for target in args.paths:
            abs_target = os.path.abspath(target)
            if os.path.isfile(abs_target):
                report_paths.add(
                    os.path.relpath(abs_target, root).replace(os.sep, "/"))
                continue
            for dirpath, dirnames, filenames in os.walk(abs_target):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTENSIONS):
                        abs_path = os.path.join(dirpath, name)
                        report_paths.add(os.path.relpath(
                            abs_path, root).replace(os.sep, "/"))

    findings = run_analysis(root, rules)
    if report_paths is not None:
        findings = [f for f in findings if f.path in report_paths]
    findings = apply_allows(findings, root, report_paths)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if args.json:
        print(json.dumps([dataclasses.asdict(f) for f in findings],
                         indent=2))
    else:
        for f in findings:
            print(f.render())
        if findings:
            print(f"sapkit_analyze: {len(findings)} finding(s)",
                  file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
