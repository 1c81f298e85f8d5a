"""Optional libclang frontend for mldcs-analyze.

Where python3-clang + libclang are installed, this module *refines* the
token model's call graph and sink lists with AST-accurate data for the
reachability rules (hot-no-alloc, lock-discipline): real overload
resolution for call edges, constructor calls (invisible to the token
frontend), and exact [[clang::annotate]] attributes.

tolerance-audit and event-vocabulary (which read suppression comments and
Python sources) always run on the token model.

This file must import cleanly only when asked to: mldcs_analyze.py catches
ClangUnavailable and degrades to the token frontend, which is the
reference implementation CI gates on.
"""

from __future__ import annotations

import json
import os

from model import Call, Sink

ANNOT_MAP = {
    "mldcs::hot_path": "MLDCS_HOT_PATH",
    "mldcs::no_lock": "MLDCS_NO_LOCK",
    "mldcs::alloc_ok": "MLDCS_ALLOC_OK",
}

OWNING_RECORDS = (
    "std::vector", "std::basic_string", "std::deque", "std::list",
    "std::map", "std::set", "std::unordered_map", "std::unordered_set",
    "std::function",
)
LOCK_RECORDS = (
    "std::mutex", "std::shared_mutex", "std::recursive_mutex",
    "std::lock_guard", "std::unique_lock", "std::scoped_lock",
    "std::shared_lock", "std::condition_variable",
)


class ClangUnavailable(RuntimeError):
    pass


def _load_cindex():
    try:
        from clang import cindex
    except ImportError as e:
        raise ClangUnavailable(f"python clang bindings not importable: {e}")
    try:
        cindex.Index.create()
    except Exception as e:  # libclang.so missing or ABI-mismatched
        raise ClangUnavailable(f"libclang not loadable: {e}")
    return cindex


def refine(model, compile_commands: str | None) -> None:
    """Re-derive calls/sinks/annotations of every function the token model
    already discovered, from the AST of each TU in compile_commands."""
    cindex = _load_cindex()
    if not compile_commands or not os.path.isfile(compile_commands):
        raise ClangUnavailable("no compile_commands.json available")
    with open(compile_commands, encoding="utf-8") as f:
        entries = json.load(f)
    index = cindex.Index.create()
    by_loc = {}
    for fn in model.functions:
        by_loc[(os.path.abspath(fn.file), fn.line)] = fn

    K = cindex.CursorKind
    for entry in entries:
        fp = os.path.normpath(os.path.join(entry.get("directory", ""),
                                           entry.get("file", "")))
        if not os.path.isfile(fp):
            continue
        args = [a for a in entry.get("command", "").split()[1:]
                if not a.endswith((".cpp", ".o")) and a not in ("-c", "-o")]
        try:
            tu = index.parse(fp, args=args)
        except cindex.TranslationUnitLoadError:
            continue

        def visit(cursor, current):
            kind = cursor.kind
            if kind in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                        K.FUNCTION_TEMPLATE) and cursor.is_definition():
                loc = cursor.location
                fn = by_loc.get((os.path.abspath(str(loc.file)), loc.line)) \
                    if loc.file else None
                if fn is not None:
                    fn.calls = []
                    fn.sinks = []
                    fn.annotations = set()
                    for ch in cursor.get_children():
                        if ch.kind == K.ANNOTATE_ATTR and \
                                ch.spelling in ANNOT_MAP:
                            fn.annotations.add(ANNOT_MAP[ch.spelling])
                    current = fn
            elif current is not None:
                line = cursor.location.line
                if kind == K.CALL_EXPR and cursor.spelling:
                    current.calls.append(Call(cursor.spelling, line, False))
                elif kind == K.CXX_NEW_EXPR:
                    current.sinks.append(
                        Sink("new", "new-expression", line))
                elif kind == K.VAR_DECL:
                    t = cursor.type.get_canonical().spelling
                    if t.startswith(OWNING_RECORDS):
                        current.sinks.append(Sink(
                            "local-container",
                            f"local {t.split('<')[0]} "
                            f"'{cursor.spelling}'", line))
                    elif t.startswith(LOCK_RECORDS):
                        current.sinks.append(Sink(
                            "lock-type", t.split("<")[0], line))
            for ch in cursor.get_children():
                visit(ch, current)

        visit(tu.cursor, None)
    model.finish()
