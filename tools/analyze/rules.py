"""The four mldcs-analyze rules.

Each rule is a function `(model, ctx) -> list[Finding]`.  `ctx` carries the
repo root and path helpers.  Rules must honor inline
suppression (`// mldcs-analyze:allow(<rule>)` on the flagged line or the
line above) themselves via `model.allowed`; baseline suppression is applied
by the driver on the stable `key`.

Rule summaries (full motivation in docs/CORRECTNESS.md):

  hot-no-alloc          Nothing reachable from an MLDCS_HOT_PATH function may
                        allocate: no new/malloc/make_unique, no fresh owning
                        container (local declaration or temporary).  Growth
                        of caller-owned scratch (members, reference
                        parameters) is the engine's amortized-zero pattern
                        and is deliberately NOT a sink.  MLDCS_ALLOC_OK on a
                        callee stops traversal into it.

  lock-discipline       Nothing reachable from an MLDCS_NO_LOCK function may
                        construct a lock/guard type, call lock/wait/join, or
                        sleep.

  tolerance-audit       In src/geometry/ and src/core/, raw ==/!= between
                        floating-point expressions must go through the
                        geom:: tolerance helpers (approx_equal & friends,
                        kTol/kAngleTol).

  event-vocabulary      The EventType enum, the event_type_name switch, and
                        tools/obslib.py EVENT_TYPES must agree exactly (and
                        likewise the Phase enum, the phase_name switch, and
                        PHASE_NAMES), and every emit_event call site outside
                        src/obs/ must pass a literal, registered EventType
                        member.
"""

from __future__ import annotations

import dataclasses
import os
import re
from collections import deque

RULES = (
    "hot-no-alloc",
    "lock-discipline",
    "tolerance-audit",
    "event-vocabulary",
)


@dataclasses.dataclass
class Finding:
    rule: str
    file: str       # root-relative path
    line: int
    message: str
    key: str        # stable id for baseline matching (no line numbers)

    def text(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"

    def as_json(self) -> dict:
        return dataclasses.asdict(self)


class Ctx:
    def __init__(self, root: str):
        self.root = os.path.abspath(root)

    def rel(self, path: str) -> str:
        return os.path.relpath(os.path.abspath(path), self.root).replace(
            os.sep, "/")


# --- Reachability rules (1, 2) ---------------------------------------------

ALLOC_SINKS = frozenset(("new", "alloc-call", "local-container",
                         "container-temp"))
LOCK_SINKS = frozenset(("lock-type", "lock-call"))

#: Callees the lock-discipline walk never descends into: hand-audited
#: lock-free by construction.  obs::Scope (obs/scope.hpp) is two relaxed
#: thread-local stores plus, when tracing is armed, one store into the
#: thread's preallocated span ring — woven through MLDCS_NO_LOCK shard
#: bodies, and safe there on registered threads by design (only a thread's
#: first armed span registers it, and pool workers register at start).
LOCK_FREE_CALLEES = frozenset(("Scope",))


def _reach(model, ctx, rule, root_annot, stop_annot, sink_kinds, what,
           skip_callees=frozenset()):
    """Shared engine: BFS from every function annotated `root_annot`,
    flagging sinks of `sink_kinds` in every reachable definition.
    Calls to names in `skip_callees` are not followed."""
    roots = [f for f in model.functions
             if root_annot in f.annotations
             and (stop_annot is None or stop_annot not in f.annotations)]
    findings = []
    # parents: function -> (caller, call line) for the witness path.
    seen: dict[int, tuple] = {}
    queue = deque()
    for r in roots:
        if id(r) not in seen:
            seen[id(r)] = (r, None, None)
            queue.append(r)
    reachable = []
    while queue:
        fn = queue.popleft()
        reachable.append(fn)
        for call in fn.calls:
            if call.name in skip_callees:
                continue
            if model.allowed(rule, fn.file, call.line):
                continue
            for callee in model.defs_named(call.name):
                if stop_annot and stop_annot in callee.annotations:
                    continue
                if id(callee) not in seen:
                    seen[id(callee)] = (callee, fn, call.line)
                    queue.append(callee)
    def path_of(fn):
        parts = [fn.qname]
        cur = fn
        for _ in range(32):
            _, parent, _line = seen[id(cur)]
            if parent is None:
                break
            parts.append(parent.qname)
            cur = parent
        return " <- ".join(parts)
    for fn in reachable:
        for s in fn.sinks:
            if s.kind not in sink_kinds:
                continue
            if model.allowed(rule, fn.file, s.line):
                continue
            rel = ctx.rel(fn.file)
            findings.append(Finding(
                rule, rel, s.line,
                f"{s.label} in '{fn.qname}' ({what}; reachable: "
                f"{path_of(fn)})",
                f"{rule}:{rel}:{fn.qname}:{s.label}"))
    return findings


def rule_hot_no_alloc(model, ctx):
    return _reach(model, ctx, "hot-no-alloc", "MLDCS_HOT_PATH",
                  "MLDCS_ALLOC_OK", ALLOC_SINKS, "allocates on a hot path")


def rule_lock_discipline(model, ctx):
    return _reach(model, ctx, "lock-discipline", "MLDCS_NO_LOCK", None,
                  LOCK_SINKS, "may block a lock-free path",
                  skip_callees=LOCK_FREE_CALLEES)


# --- Rule 3: tolerance-audit ------------------------------------------------

AUDIT_DIRS = ("src/geometry/", "src/core/")
AUDIT_EXCLUDE = ("src/geometry/tolerance.hpp",)

# Window boundaries when extracting comparison operands.
_BOUNDS = frozenset((";", ",", "{", "}", "?", ":", "&&", "||", "=", "==",
                     "!=", "<", ">", "<=", ">=", "(", ")", "[", "]",
                     "return", "if", "while", "for", "!"))

_OPEN = {"(": ")", "[": "]", "{": "}"}
_CLOSE = {")": "(", "]": "[", "}": "{"}


def _operand_window(toks, i, step, hi, lo):
    """Tokens of the operand next to the comparison at `i`, walking by
    `step` (+1 right, -1 left) until a same-depth boundary."""
    out = []
    depth = 0
    j = i + step
    while lo <= j < hi:
        t = toks[j]
        v = t.val
        if t.kind == "p":
            opening = v in _OPEN if step > 0 else v in _CLOSE
            closing = v in _CLOSE if step > 0 else v in _OPEN
            if opening:
                depth += 1
            elif closing:
                if depth == 0:
                    break
                depth -= 1
        if depth == 0 and t.kind in ("p", "id") and v in _BOUNDS:
            break
        out.append(t)
        j += step
    return out


def _is_doubleish(window, fn, model):
    for k, t in enumerate(window):
        if t.kind == "fnum":
            return True
        if t.kind == "id":
            v = t.val
            if v in ("double", "float"):
                return True
            if v in fn.local_doubles or v in model.double_globals:
                return True
            nxt = window[k + 1] if k + 1 < len(window) else None
            prev = window[k - 1] if k > 0 else None
            is_call = bool(nxt and nxt.kind == "p" and nxt.val == "(")
            if is_call and v in model.double_funcs:
                return True
            if not is_call and prev and prev.kind == "p" \
                    and prev.val in (".", "->") and v in model.double_fields:
                return True
            if is_call and prev and prev.kind == "p" \
                    and prev.val in (".", "->") and v in model.double_funcs:
                return True
    return False


def rule_tolerance_audit(model, ctx):
    findings = []
    for fn in model.functions:
        rel = ctx.rel(fn.file)
        if not rel.startswith(AUDIT_DIRS) or rel in AUDIT_EXCLUDE:
            continue
        if fn.body is None:
            continue
        lx = model.lexed[fn.file]
        toks = lx.tokens
        lo, hi = fn.body
        for j in range(lo, hi):
            t = toks[j]
            if t.kind != "p" or t.val not in ("==", "!="):
                continue
            left = _operand_window(toks, j, -1, hi, lo)
            right = _operand_window(toks, j, +1, hi, lo)
            if not left or not right:
                continue
            if not (_is_doubleish(left, fn, model)
                    or _is_doubleish(right, fn, model)):
                continue
            if model.allowed("tolerance-audit", fn.file, t.line):
                continue
            findings.append(Finding(
                "tolerance-audit", rel, t.line,
                f"raw '{t.val}' on floating-point operands in '{fn.qname}' "
                f"— use geom::approx_equal/approx_zero (kTol) instead",
                f"tolerance-audit:{rel}:{fn.qname}:{t.val}@"
                f"{t.line - fn.line}"))
    return findings


# --- Rule 4: event-vocabulary -----------------------------------------------

#: Every enum whose names leave the process, as (header, enum, name switch,
#: tools/obslib.py set, the obslib loader that rejects unknown names).
VOCABULARIES = (
    ("src/obs/event_log.hpp", "EventType", "event_type_name", "EVENT_TYPES",
     "load_events"),
    ("src/obs/scope.hpp", "Phase", "phase_name", "PHASE_NAMES",
     "load_profile"),
)


def _enum_members(model, ctx, header, enum):
    """Members of `enum class <enum>` in `header`, in order."""
    for path, lx in model.lexed.items():
        if ctx.rel(path) != header:
            continue
        toks = lx.tokens
        for i in range(len(toks) - 2):
            if toks[i].val == "enum" and toks[i + 1].val == "class" \
                    and toks[i + 2].val == enum:
                j = i + 3
                while j < len(toks) and toks[j].val != "{":
                    j += 1
                members = []
                depth = 0
                expect_member = True
                for k in range(j, len(toks)):
                    v = toks[k].val
                    if v == "{":
                        depth += 1
                    elif v == "}":
                        break
                    elif v == "," and depth == 1:
                        expect_member = True
                    elif toks[k].kind == "id" and depth == 1 \
                            and expect_member:
                        members.append((v, toks[k].line))
                        expect_member = False  # skip `= value` tokens
                return path, members
    return None, []


def _switch_strings(model, fn_name, enum):
    """(member, string, line) triples from the `fn_name` switch."""
    for fn in model.functions:
        if fn.name != fn_name or fn.body is None:
            continue
        toks = model.lexed[fn.file].tokens
        lo, hi = fn.body
        mapping = []
        j = lo
        while j < hi:
            if toks[j].val == "case" and j + 3 < hi \
                    and toks[j + 1].val == enum:
                member = toks[j + 3].val
                k = j + 4
                while k < hi and toks[k].val != "return":
                    k += 1
                if k + 1 < hi and toks[k + 1].kind == "str":
                    mapping.append((member, toks[k + 1].val.strip('"'),
                                    toks[j].line))
                j = k
            j += 1
        return fn.file, mapping
    return None, []


def rule_event_vocabulary(model, ctx):
    findings = []

    def emit(path, line, msg, keyctx):
        rel = ctx.rel(path)
        if not model.allowed("event-vocabulary", path, line):
            findings.append(Finding("event-vocabulary", rel, line, msg,
                                    f"event-vocabulary:{rel}:{keyctx}"))

    obslib = os.path.join(ctx.root, "tools", "obslib.py")
    obslib_text = None
    if os.path.isfile(obslib):
        with open(obslib, encoding="utf-8") as f:
            obslib_text = f.read()

    event_members = None
    for header, enum, fn_name, py_set, loader in VOCABULARIES:
        hpp_path, members = _enum_members(model, ctx, header, enum)
        if hpp_path is None:
            continue  # tree without this vocabulary: nothing to check
        member_names = {m for m, _ in members}
        if enum == "EventType":
            event_members = member_names
        cpp_path, mapping = _switch_strings(model, fn_name, enum)
        covered = {m for m, _, _ in mapping}
        strings = [s for _, s, _ in mapping]
        if cpp_path is not None:
            for m, line in members:
                if m not in covered:
                    emit(cpp_path, 1,
                         f"{enum}::{m} has no case in {fn_name} — its "
                         f"records would export under a fallback name",
                         f"switch:{m}")
            for m, s, line in mapping:
                if m not in member_names:
                    emit(cpp_path, line,
                         f"{fn_name} names unknown member {enum}::{m}",
                         f"switch:{m}")
            dup = {s for s in strings if strings.count(s) > 1}
            for s in sorted(dup):
                emit(cpp_path, 1,
                     f"{fn_name} string \"{s}\" is not unique — "
                     f"consumers cannot distinguish the members", f"dup:{s}")

        # tools/obslib.py parity (only when the tree ships the set).
        m = None
        if obslib_text is not None:
            m = re.search(rf"{py_set}\s*=\s*frozenset\(\{{(.*?)\}}\)",
                          obslib_text, re.DOTALL)
        if m:
            py_names = set(re.findall(r"[\"']([\w]+)[\"']", m.group(1)))
            cpp_names = set(strings)
            line = obslib_text[:m.start()].count("\n") + 1
            for s in sorted(cpp_names - py_names):
                emit(obslib, line,
                     f"\"{s}\" emitted by C++ {fn_name} but missing from "
                     f"obslib {py_set} — {loader} would reject it",
                     f"obslib:{py_set}:{s}")
            for s in sorted(py_names - cpp_names):
                emit(obslib, line,
                     f"obslib {py_set} lists \"{s}\" which no {enum} maps "
                     f"to — stale vocabulary entry", f"obslib:{py_set}:{s}")

    if event_members is None:
        return findings
    member_names = event_members
    rel_hpp = VOCABULARIES[0][0]

    # Emit sites: literal registered members only, outside src/obs/.
    for path, lx in model.lexed.items():
        rel = ctx.rel(path)
        if rel.startswith("src/obs/"):
            continue
        toks = lx.tokens
        for i, t in enumerate(toks):
            if t.kind != "id" or t.val != "emit_event":
                continue
            if i + 1 >= len(toks) or toks[i + 1].val != "(":
                continue
            # first argument tokens up to the top-level comma
            depth = 0
            arg = []
            for k in range(i + 1, min(i + 40, len(toks))):
                v = toks[k].val
                if v == "(":
                    depth += 1
                    if depth == 1:
                        continue
                elif v == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif v == "," and depth == 1:
                    break
                arg.append(toks[k])
            ids = [a.val for a in arg if a.kind == "id"]
            if len(ids) >= 2 and ids[-2] == "EventType":
                if ids[-1] not in member_names:
                    emit(path, t.line,
                         f"emit_event uses unregistered EventType::"
                         f"{ids[-1]} (not in {rel_hpp})", f"emit:{ids[-1]}")
            else:
                expr = " ".join(a.val for a in arg)
                emit(path, t.line,
                     f"emit_event first argument '{expr}' is not a literal "
                     f"EventType member — vocabulary cannot be audited "
                     f"statically", f"emit-nonliteral:{expr}")
    return findings


RULE_FUNCS = {
    "hot-no-alloc": rule_hot_no_alloc,
    "lock-discipline": rule_lock_discipline,
    "tolerance-audit": rule_tolerance_audit,
    "event-vocabulary": rule_event_vocabulary,
}
