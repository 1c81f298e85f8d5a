"""Source model for mldcs-analyze: a C++ token frontend.

The analyzer needs three views of the tree that no off-the-shelf linter
provides together:

  * function definitions with their *project annotations* (MLDCS_HOT_PATH /
    MLDCS_NO_LOCK / MLDCS_ALLOC_OK from src/core/annotations.hpp),
  * a call graph good enough for reachability ("what can this hot root
    reach"),
  * inline suppression markers (`// mldcs-analyze:allow(<rule>)`).

This module implements the token frontend: a hand-rolled C++ lexer plus a
scope-tracking pass that extracts functions, fields, calls, local
owning-container declarations, and lock/allocation sink tokens.  It is the
*reference* frontend — deterministic, dependency-free, and what CI gates
on.  A libclang frontend (clangfe.py) can replace the call-graph/function
extraction where python3-clang is installed; the tolerance and
vocabulary rules always run on this model.

Deliberate over-approximations (soundness posture, see
docs/CORRECTNESS.md):

  * Call edges are by *name*: a call site `f(...)` edges to every known
    definition named `f`.  False edges are possible; missed edges only
    happen through constructors and type-erasure (std::function), which is
    exactly what the runtime AllocGuard/LockGuard interposer cross-checks.
  * Growth of caller-owned scratch (members, reference parameters) is not
    an allocation sink — that is the amortized-zero steady-state pattern
    the engine is built on.  Fresh owning containers and new/malloc are.
"""

from __future__ import annotations

import dataclasses
import re

# --- Lexing -----------------------------------------------------------------

ALLOW_RE = re.compile(r"mldcs-analyze:allow\(([A-Za-z0-9_,\- ]+)\)")

KEYWORDS = frozenset(
    """alignas alignof asm auto bool break case catch char class co_await
    co_return co_yield concept const consteval constexpr constinit
    const_cast continue decltype default delete do double dynamic_cast else
    enum explicit export extern false float for friend goto if inline int
    long mutable namespace new noexcept nullptr operator private protected
    public register reinterpret_cast requires return short signed sizeof
    static static_assert static_cast struct switch template this
    thread_local throw true try typedef typeid typename union unsigned
    using virtual void volatile wchar_t while""".split()
)

# Tokens that can never be a call name even though they precede a '('.
NON_CALL_NAMES = frozenset(
    """if for while switch return sizeof alignof alignas decltype catch
    static_cast dynamic_cast reinterpret_cast const_cast typeid noexcept
    assert defined throw new delete""".split()
)

PUNCT3 = ("<<=", ">>=", "...", "->*")
PUNCT2 = (
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
)


@dataclasses.dataclass
class Tok:
    kind: str  # 'id' | 'num' | 'fnum' | 'str' | 'chr' | 'p' (punct)
    val: str
    line: int


class Lexed:
    """One file reduced to tokens + per-line suppression markers."""

    def __init__(self, path: str, tokens: list[Tok], allows: dict[int, set]):
        self.path = path
        self.tokens = tokens
        self.allows = allows  # line -> set of rule names allowed there

    def allowed(self, rule: str, line: int) -> bool:
        """True if `rule` is suppressed on `line` (marker on the same line
        or alone on the line above)."""
        for ln in (line, line - 1):
            rules = self.allows.get(ln)
            if rules and (rule in rules or "*" in rules):
                return True
        return False


def lex(path: str, text: str) -> Lexed:
    tokens: list[Tok] = []
    allows: dict[int, set] = {}
    i, n, line = 0, len(text), 1

    def note_allow(comment: str, ln: int) -> None:
        m = ALLOW_RE.search(comment)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            allows.setdefault(ln, set()).update(rules)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Preprocessor directive: consume the (continued) line.
        if c == "#" and (not tokens or tokens[-1].line != line):
            j = i
            while j < n:
                if text[j] == "\n" and text[j - 1] != "\\":
                    break
                j += 1
            line += text.count("\n", i, j)
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            note_allow(text[i:j], line)
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            comment = text[i:j + 2]
            for off, part in enumerate(comment.split("\n")):
                note_allow(part, line + off)
            line += comment.count("\n")
            i = j + 2
            continue
        if c == '"':
            if tokens and tokens[-1].kind == "id" and tokens[-1].val == "R":
                # Raw string: R"delim( ... )delim"
                m = re.match(r'R"([^(]*)\(', text[i - 1:])
                if m:
                    end = text.find(")" + m.group(1) + '"', i)
                    end = n - 1 if end < 0 else end + len(m.group(1)) + 2
                    tokens.pop()
                    tokens.append(Tok("str", text[i:end], line))
                    line += text.count("\n", i, end)
                    i = end
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Tok("str", text[i:j + 1], line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Tok("chr", text[i:j + 1], line))
            i = j + 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = re.match(r"(0[xX][0-9a-fA-F'.pP+-]+|[\d'.]+([eE][+-]?\d+)?)"
                         r"[uUlLfFzZ]*", text[i:])
            lit = m.group(0)
            if lit.lower().startswith("0x"):
                isf = "p" in lit.lower()
            else:
                isf = "." in lit or "e" in lit.lower() or \
                      lit.rstrip("uUlLzZ").endswith(("f", "F"))
            tokens.append(Tok("fnum" if isf else "num", lit, line))
            i += len(lit)
            continue
        if c.isalpha() or c == "_":
            m = re.match(r"[A-Za-z_]\w*", text[i:])
            tokens.append(Tok("id", m.group(0), line))
            i += len(m.group(0))
            continue
        for p in PUNCT3:
            if text.startswith(p, i):
                tokens.append(Tok("p", p, line))
                i += len(p)
                break
        else:
            for p in PUNCT2:
                if text.startswith(p, i):
                    tokens.append(Tok("p", p, line))
                    i += len(p)
                    break
            else:
                tokens.append(Tok("p", c, line))
                i += 1
    return Lexed(path, tokens, allows)


# --- Extraction -------------------------------------------------------------

ANNOTATIONS = ("MLDCS_HOT_PATH", "MLDCS_NO_LOCK", "MLDCS_ALLOC_OK")

OWNING_CONTAINERS = frozenset(
    """vector string deque list map unordered_map set unordered_set multimap
    multiset unordered_multimap unordered_multiset basic_string stringstream
    ostringstream istringstream function valarray""".split()
)

ALLOC_CALLS = frozenset(
    """malloc calloc realloc strdup aligned_alloc make_unique make_shared
    to_string""".split()
)

LOCK_TYPES = frozenset(
    """mutex shared_mutex recursive_mutex timed_mutex recursive_timed_mutex
    lock_guard unique_lock scoped_lock shared_lock condition_variable
    condition_variable_any""".split()
)
LOCK_CALLS = frozenset(
    """lock unlock try_lock wait wait_for wait_until join sleep_for
    sleep_until pthread_mutex_lock pthread_cond_wait""".split()
)


@dataclasses.dataclass
class Sink:
    kind: str  # 'new' | 'alloc-call' | 'local-container' | 'container-temp'
               # | 'lock-type' | 'lock-call'
    label: str
    line: int


@dataclasses.dataclass
class Call:
    name: str       # last identifier ("relay_forwarding_set")
    line: int
    method: bool    # true for x.f(...) / x->f(...)


@dataclasses.dataclass
class Func:
    file: str
    line: int
    name: str                 # short name
    qname: str                # Scope::qualified name
    cls: str | None           # enclosing (or explicit A::) class, if any
    params: str               # raw parameter-list text
    ret: str                  # raw return-type text
    annotations: set
    is_def: bool
    body: tuple | None = None  # (lo, hi) token span of the body, if a def
    calls: list = dataclasses.field(default_factory=list)
    sinks: list = dataclasses.field(default_factory=list)
    local_doubles: set = dataclasses.field(default_factory=set)


class Model:
    """Whole-project model: functions, fields, call graph, markers."""

    def __init__(self):
        self.functions: list[Func] = []       # definitions
        self.declarations: list[Func] = []    # prototype-only
        self.double_fields: set = set()       # struct/class members of double
        self.double_funcs: set = set()        # names returning double
        self.double_globals: set = set()      # namespace-scope double consts
        self.lexed: dict[str, Lexed] = {}
        self._by_name: dict[str, list] = {}

    def add_file(self, path: str, text: str) -> None:
        lx = lex(path, text)
        self.lexed[path] = lx
        _Extractor(self, lx).run()

    def finish(self) -> None:
        self._by_name = {}
        annotated = {}

        def arity(f):
            return len(_split_top(f.params))

        for f in self.functions + self.declarations:
            if f.ret.strip().startswith("double") or \
               f.ret.strip() == "double":
                self.double_funcs.add(f.name)
            for a in f.annotations:
                annotated.setdefault((f.cls, f.name, arity(f)),
                                     set()).add(a)
        # An annotation on any declaration or definition of a
        # (class, name, arity) applies to every definition of it: headers
        # carry the contract, .cpp files carry the body.  Arity keeps
        # differently-annotated overloads apart (e.g. the allocating
        # convenience overload vs the workspace hot overload).
        for f in self.functions:
            extra = annotated.get((f.cls, f.name, arity(f)))
            if extra:
                f.annotations |= extra
        for f in self.functions:
            self._by_name.setdefault(f.name, []).append(f)

    def defs_named(self, name: str) -> list:
        return self._by_name.get(name, [])

    def allowed(self, rule: str, path: str, line: int) -> bool:
        lx = self.lexed.get(path)
        return bool(lx) and lx.allowed(rule, line)


class _Extractor:
    """One pass over a file's tokens with a brace-scope stack."""

    def __init__(self, model: Model, lx: Lexed):
        self.m = model
        self.lx = lx
        self.toks = lx.tokens

    def run(self) -> None:
        toks = self.toks
        scopes: list[tuple] = []  # ('ns'|'class'|'enum'|'block'|'skip', name)
        decl_start = 0
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.kind == "p" and t.val == ";":
                self._maybe_declaration(decl_start, i, scopes)
                decl_start = i + 1
                i += 1
                continue
            if t.kind == "p" and t.val == "{":
                kind, name = self._classify_brace(decl_start, i, scopes)
                if kind == "fn":
                    end = self._match_brace(i)
                    fn = self._extract_function(decl_start, i, end, scopes,
                                                is_def=True)
                    if fn is not None:
                        fn.body = (i + 1, end)
                        self._scan_body(fn, i + 1, end)
                    i = end + 1
                    decl_start = i
                    continue
                scopes.append((kind, name))
                decl_start = i + 1
                i += 1
                continue
            if t.kind == "p" and t.val == "}":
                if scopes:
                    scopes.pop()
                i += 1
                # consume a trailing ';' of class/enum definitions
                decl_start = i
                continue
            if t.kind == "id" and t.val in ("public", "private", "protected") \
                    and i + 1 < n and toks[i + 1].val == ":":
                decl_start = i + 2
                i += 2
                continue
            i += 1

    # -- helpers --

    def _match_brace(self, i: int) -> int:
        depth = 0
        toks = self.toks
        for j in range(i, len(toks)):
            v = toks[j].val
            if toks[j].kind == "p":
                if v == "{":
                    depth += 1
                elif v == "}":
                    depth -= 1
                    if depth == 0:
                        return j
        return len(toks) - 1

    def _classify_brace(self, start: int, i: int, scopes) -> tuple:
        """Decide what the '{' at i opens, looking at tokens[start:i]."""
        toks = self.toks
        decl = toks[start:i]
        in_fn = any(s[0] == "fn" for s in scopes)
        # namespace X { / namespace {
        for k, t in enumerate(decl):
            if t.kind == "id" and t.val == "namespace":
                parts = [x.val for x in decl[k + 1:] if x.kind == "id"]
                return ("ns", "::".join(parts) if parts else "(anon)")
            if t.kind == "id" and t.val in ("class", "struct", "union"):
                # could still be `struct X x = {...}`: require no '=' after
                if any(x.val == "=" for x in decl[k + 1:]):
                    break
                name = None
                for x in decl[k + 1:]:
                    if x.kind == "id" and x.val not in ("final", "alignas"):
                        name = x.val
                    elif x.kind == "p" and x.val in (":", "{"):
                        break
                return ("class", name or "(anon)")
            if t.kind == "id" and t.val == "enum":
                return ("enum", None)
        if in_fn:
            return ("block", None)
        if self._looks_like_function(decl):
            return ("fn", None)
        return ("skip", None)  # brace-init at ns/class scope, extern "C", ...

    @staticmethod
    def _looks_like_function(decl: list) -> bool:
        # Find last top-level ')': a parameter list must exist.
        depth = 0
        last_close = -1
        for k, t in enumerate(decl):
            if t.kind != "p":
                continue
            if t.val == "(":
                depth += 1
            elif t.val == ")":
                depth -= 1
                if depth == 0:
                    last_close = k
        if last_close < 0:
            return False
        # After it: only qualifiers / ctor-init list / trailing return.
        for t in decl[last_close + 1:]:
            if t.kind == "p" and t.val in ("=", ";"):
                # `= default` handled at ';'-declarations, not here
                return False
        return True

    def _extract_function(self, start, brace, end, scopes, is_def):
        toks = self.toks
        decl = toks[start:brace]
        # Parameter list: the parenthesis group whose opening '(' directly
        # follows the function name.  Walk to the FIRST top-level '(' that
        # is preceded by an identifier (or operator token).
        depth = 0
        open_k = close_k = -1
        for k, t in enumerate(decl):
            if t.kind == "p" and t.val == "(":
                if depth == 0 and open_k < 0 and k > 0 and (
                        decl[k - 1].kind == "id"
                        or decl[k - 1].val in (")", "]", ">")
                        or decl[k - 1].val == "operator"):
                    open_k = k
                depth += 1
            elif t.kind == "p" and t.val == ")":
                depth -= 1
                if depth == 0 and open_k >= 0 and close_k < 0:
                    close_k = k
        if open_k < 0 or close_k < 0:
            return None
        # Name (possibly qualified A::B::f) walking left from open_k.
        k = open_k - 1
        name_parts = []
        while k >= 0:
            t = decl[k]
            if t.kind == "id" and t.val not in KEYWORDS:
                name_parts.append(t.val)
                if k >= 1 and decl[k - 1].val == "::":
                    k -= 2
                    # skip template args of the qualifier: A<T>::f
                    continue
                break
            if t.kind == "id" and t.val == "operator":
                name_parts.append("operator")
                break
            if t.kind == "p" and t.val in (">", ")", "]"):
                # operator tokens / template qualifier — give up on name
                break
            break
        if not name_parts:
            return None
        name_parts.reverse()
        name = name_parts[-1]
        if name in KEYWORDS or name in NON_CALL_NAMES:
            return None
        cls = name_parts[-2] if len(name_parts) >= 2 else None
        for s in reversed(scopes):
            if s[0] == "class" and cls is None:
                cls = s[1]
                break
        annotations = {t.val for t in decl
                       if t.kind == "id" and t.val in ANNOTATIONS}
        ret = " ".join(
            t.val for t in decl[:max(0, k)]
            if not (t.kind == "id" and (t.val in ANNOTATIONS
                                        or t.val in ("template", "typename",
                                                     "inline", "static",
                                                     "constexpr", "explicit",
                                                     "virtual", "friend"))))
        ret = re.sub(r"\[\s*\[.*?\]\s*\]", "", ret).strip()
        params = " ".join(t.val for t in decl[open_k + 1:close_k])
        qname = "::".join([s[1] for s in scopes
                           if s[0] in ("ns", "class") and s[1]]
                          + name_parts)
        fn = Func(self.lx.path, decl[open_k].line, name, qname, cls, params,
                  ret, annotations, is_def)
        # Constructor-initializer list: record its calls on the ctor.
        if is_def:
            self._scan_calls(fn, start + close_k + 1, brace)
        if cls == name:
            fn.cls = cls  # constructor
        # double parameters -> local double identifiers
        for piece in _split_top(params):
            ws = piece.split()
            if ws and ws[0] in ("double", "float") and len(ws) >= 2:
                pname = ws[-1].lstrip("&*")
                if pname.isidentifier():
                    fn.local_doubles.add(pname)
        target = self.m.functions if is_def else self.m.declarations
        target.append(fn)
        return fn

    def _maybe_declaration(self, start, semi, scopes) -> None:
        toks = self.toks
        decl = toks[start:semi]
        if not decl:
            return
        in_fn = any(s[0] == "fn" for s in scopes)
        in_class = bool(scopes) and scopes[-1][0] == "class"
        at_ns = not scopes or scopes[-1][0] == "ns"
        # Field / global double collection.
        if (in_class or at_ns) and not in_fn:
            words = [t.val for t in decl if t.kind == "id"]
            if "double" in words and "(" not in [t.val for t in decl]:
                names = []
                seen_double = False
                for t in decl:
                    if t.kind == "id" and t.val == "double":
                        seen_double = True
                    elif seen_double and t.kind == "id" and \
                            t.val not in KEYWORDS:
                        names.append(t.val)
                    elif seen_double and t.kind == "p" and t.val == "=":
                        break
                for nm in names:
                    if in_class:
                        self.m.double_fields.add(nm)
                        self.m.double_fields.add(nm.rstrip("_"))
                    else:
                        self.m.double_globals.add(nm)
        if in_fn or (not in_class and not at_ns):
            return
        # Function prototype?
        if any(t.kind == "id" and t.val in ("using", "typedef", "friend")
               for t in decl[:2]):
            # `friend` declarations still carry annotations; keep them.
            if not any(t.val in ANNOTATIONS for t in decl):
                return
        if not self._looks_like_function(decl + [Tok("p", "{", 0)]):
            return
        self._extract_function(start, semi, semi, scopes, is_def=False)

    def _scan_calls(self, fn: Func, lo: int, hi: int) -> None:
        toks = self.toks
        for j in range(lo, hi):
            t = toks[j]
            if t.kind == "id" and j + 1 < hi and toks[j + 1].val == "(" \
                    and t.val not in NON_CALL_NAMES and t.val not in KEYWORDS:
                prev = toks[j - 1] if j > lo else None
                method = bool(prev and prev.kind == "p"
                              and prev.val in (".", "->"))
                fn.calls.append(Call(t.val, t.line, method))

    def _scan_body(self, fn: Func, lo: int, hi: int) -> None:
        """Collect calls, sinks, and local declarations in tokens[lo:hi]."""
        toks = self.toks
        self._scan_calls(fn, lo, hi)
        j = lo
        stmt_start = True  # after { } ;
        class_depth = 0    # inside a function-local struct definition
        class_stack: list[int] = []
        depth = 0
        while j < hi:
            t = toks[j]
            v = t.val
            if t.kind == "p":
                if v == ";":
                    stmt_start = True
                elif v == "{":
                    depth += 1
                    stmt_start = True
                elif v == "}":
                    depth -= 1
                    if class_stack and depth < class_stack[-1]:
                        class_stack.pop()
                    stmt_start = True
                j += 1
                continue
            if t.kind == "id" and v in ("struct", "class", "union"):
                # function-local type definition: treat its braces as class
                # scope (its fields are not local variables).
                k = j + 1
                while k < hi and not (toks[k].kind == "p"
                                      and toks[k].val in ("{", ";", "(")):
                    k += 1
                if k < hi and toks[k].val == "{":
                    class_stack.append(depth + 1)
            in_class_def = bool(class_stack)
            if t.kind == "id":
                # new-expressions
                if v == "new":
                    prev = toks[j - 1] if j > lo else None
                    if not (prev and prev.val == "operator"):
                        fn.sinks.append(Sink("new", "new-expression", t.line))
                elif v in ALLOC_CALLS and _call_paren(toks, j + 1, hi):
                    fn.sinks.append(Sink("alloc-call", v + "()", t.line))
                elif v in LOCK_TYPES:
                    prev = toks[j - 1] if j > lo else None
                    if prev and prev.val == "::":
                        fn.sinks.append(Sink("lock-type", "std::" + v,
                                             t.line))
                elif v in LOCK_CALLS and j + 1 < hi \
                        and toks[j + 1].val == "(":
                    prev = toks[j - 1] if j > lo else None
                    if v in ("pthread_mutex_lock", "pthread_cond_wait") or (
                            prev and prev.kind == "p"
                            and prev.val in (".", "->", "::")):
                        fn.sinks.append(Sink("lock-call", v + "()", t.line))
                # local double declarations (for tolerance-audit)
                if v == "double" and not in_class_def:
                    k = j + 1
                    while k < hi and toks[k].kind == "id" \
                            and toks[k].val in ("const",):
                        k += 1
                    if k < hi and toks[k].kind == "id" \
                            and toks[k].val not in KEYWORDS:
                        fn.local_doubles.add(toks[k].val)
                # owning-container locals and temporaries
                if v == "std" and j + 2 < hi and toks[j + 1].val == "::" \
                        and toks[j + 2].kind == "id" \
                        and toks[j + 2].val in OWNING_CONTAINERS \
                        and not in_class_def:
                    k = j + 3
                    if k < hi and toks[k].val == "<":
                        tdepth = 0
                        while k < hi:
                            if toks[k].val == "<":
                                tdepth += 1
                            elif toks[k].val == ">":
                                tdepth -= 1
                                if tdepth == 0:
                                    k += 1
                                    break
                            elif toks[k].val == ">>":
                                tdepth -= 2
                                if tdepth <= 0:
                                    k += 1
                                    break
                            k += 1
                    ctype = "std::" + toks[j + 2].val
                    if k < hi and toks[k].kind == "p" \
                            and toks[k].val in ("(", "{"):
                        fn.sinks.append(Sink("container-temp",
                                             ctype + " temporary",
                                             toks[j + 2].line))
                    elif k < hi and toks[k].kind == "id" \
                            and toks[k].val not in KEYWORDS \
                            and stmt_start:
                        nxt = toks[k + 1] if k + 1 < hi else None
                        if nxt is None or nxt.val in (";", "=", "(", "{",
                                                      ","):
                            fn.sinks.append(Sink(
                                "local-container",
                                f"local {ctype} '{toks[k].val}'",
                                toks[k].line))
                stmt_start = False
            else:
                stmt_start = False
            j += 1


def _call_paren(toks, j: int, hi: int) -> bool:
    """True if tokens[j:] begin a call argument list, allowing an explicit
    template argument list first: `(`, or `<...>` then `(`."""
    if j < hi and toks[j].val == "(":
        return True
    if j < hi and toks[j].val == "<":
        depth = 0
        while j < hi:
            v = toks[j].val
            if v == "<":
                depth += 1
            elif v == ">":
                depth -= 1
                if depth == 0:
                    return j + 1 < hi and toks[j + 1].val == "("
            elif v in (";", "{", "}"):
                return False
            j += 1
    return False


def _split_top(params: str) -> list:
    """Split a parameter-list string on top-level commas."""
    out, depth, cur = [], 0, []
    for ch in params:
        if ch in "<([{":
            depth += 1
        elif ch in ">)]}":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [p for p in out if p]
