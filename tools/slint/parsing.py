"""Source model extraction: scopes, classes, functions, and the mutex DB.

Everything here works on comment/string-stripped text (reusing
tools/lint.py's strip_comments tokenizer, which preserves newlines so line
numbers survive) with targeted dips back into the raw text to recover the
one thing stripping erases: the constructor-site name strings that key the
mutex database.

This is a heuristic C++ reader, not a compiler frontend. It understands the
shapes this codebase actually uses — out-of-class definitions, inline class
methods, constructor init-lists, default member initializers, nested
structs, lambdas — and reports what it could not attribute (see
Program.parse_gaps) instead of silently guessing.
"""

import hashlib
import multiprocessing
import os
import pickle
import re
import sys

# Bump whenever the parse model changes shape: invalidates every cached
# fragment under build/slint_cache/ (cache keys include this stamp).
PARSER_VERSION = 2

_TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _TOOLS_DIR not in sys.path:
    sys.path.insert(0, _TOOLS_DIR)
import lint  # noqa: E402  (tools/lint.py: strip_comments)

strip_comments = lint.strip_comments

# Trailing qualifiers/annotation macros a function header may carry between
# its parameter list and its body. Macros capture their argument lists.
_QUAL_WORDS = ("const", "noexcept", "override", "final", "mutable",
               "NO_THREAD_SAFETY_ANALYSIS", "SCOPED_CAPABILITY")
_QUAL_MACROS = ("REQUIRES_SHARED", "REQUIRES", "ACQUIRE_SHARED", "ACQUIRE",
                "RELEASE_SHARED", "RELEASE", "TRY_ACQUIRE", "EXCLUDES",
                "ASSERT_CAPABILITY", "RETURN_CAPABILITY", "noexcept",
                "EXCLUSIVE_LOCKS_REQUIRED", "SHARED_LOCKS_REQUIRED")

_CONTROL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do",
    "else", "case", "default", "new", "delete", "throw", "static_cast",
    "dynamic_cast", "reinterpret_cast", "const_cast", "static_assert",
    "alignof", "decltype", "defined", "assert", "co_await", "co_return"))


class MutexInfo:
    """One class-level lock role, keyed by its constructor-site name string
    (the same key the runtime graph uses)."""

    def __init__(self, name, rank_token, striped, owner_chain, var, site):
        self.name = name              # "storage.plog_store.stripe"
        self.rank_token = rank_token  # "kPlogStore"
        self.rank = None              # int, filled from the LockRank enum
        self.striped = striped
        # Enclosing classes at the construction site, innermost first —
        # ("Stripe", "PlogStore") for a stripe lock. Disambiguates the two
        # same-named Stripe structs (kv vs. plog_store).
        self.owner_chain = tuple(owner_chain)
        self.owner_class = owner_chain[0] if owner_chain else None
        self.var = var                # declared variable name or None
        self.sites = [site]           # (path, line)


class FunctionInfo:
    def __init__(self, qualname, cls, name, path, header, body, body_line,
                 requires, no_tsa, param_types, ret=""):
        self.qualname = qualname      # "StreamObject::Append"
        self.cls = cls                # "StreamObject" or None
        self.name = name
        self.path = path
        self.header = header
        self.body = body              # stripped text, braces included
        self.body_line = body_line    # 1-based line of the opening brace
        self.requires = requires      # raw REQUIRES(...) argument strings
        self.no_tsa = no_tsa
        self.param_types = param_types  # {param_name: type_string}
        self.ret = ret                # raw return-type text ("" for ctors)
        self.deferred = False         # True for Submit-excised lambdas
        # Filled by analysis:
        self.summary = None

    def line_of(self, pos):
        """Line number (1-based, in self.path) of offset `pos` in body."""
        return self.body_line + self.body.count("\n", 0, pos)


class ClassInfo:
    def __init__(self, name, qualname, path):
        self.name = name
        self.qualname = qualname
        self.path = path
        self.members = {}       # member var -> type string
        self.guarded = []       # (field, guard_expr, line)
        self.annotated = set()  # fields with GUARDED_BY or PT_GUARDED_BY
        self.const_members = set()  # const / static / constexpr members
        self.member_lines = {}  # member var -> declaration line
        self.decl_requires = {}  # method name -> [REQUIRES args]
        self.bases = []


class Program:
    """Parsed model of the whole source tree."""

    def __init__(self):
        self.functions = []           # [FunctionInfo]
        self.functions_by_name = {}   # name -> [FunctionInfo]
        self.classes = {}             # class name -> ClassInfo
        self.mutexes = {}             # lock name string -> MutexInfo
        self.ranks = {}               # "kFoo" -> int
        self.parse_gaps = []          # human-readable attribution warnings


def _match_brace(text, open_pos):
    """Index of the `}` matching the `{` at open_pos (text is stripped, so
    braces in strings/comments are gone). Returns len(text) if unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


_TEMPLATE_HDR = re.compile(r"template\s*<[^<>]*(?:<[^<>]*>[^<>]*)*>")
_CLASS_HDR = re.compile(
    r"\b(?:class|struct)\s+"
    r"(?:(?:CAPABILITY|SCOPED_CAPABILITY|SL_THREAD_ANNOTATION|alignas)"
    r"\s*(?:\([^()]*\))?\s*)*"
    r"([A-Za-z_]\w*)")
_NAMESPACE_HDR = re.compile(r"\bnamespace\s*([\w:]*)")
_CTOR_INIT_SPLIT = re.compile(r"\)\s*:\s*(?!:)")
_FUNC_NAME = re.compile(r"((?:[\w~]+\s*::\s*)*[\w~]+|operator\s*[^\s(]+)\s*$")


def _strip_qualifiers(header):
    """Peel trailing qualifiers/annotation macros off a function header,
    returning (core_header_ending_in_param_list, requires_args, no_tsa)."""
    requires = []
    no_tsa = False
    h = header.rstrip()
    while True:
        h = h.rstrip()
        progressed = False
        for w in _QUAL_WORDS:
            if h.endswith(w) and re.search(r"(\W|^)" + w + r"$", h):
                if w == "NO_THREAD_SAFETY_ANALYSIS":
                    no_tsa = True
                h = h[: -len(w)]
                progressed = True
                break
        if progressed:
            continue
        if h.endswith(")"):
            # A trailing (...) group: qualifier macro or the param list.
            depth = 0
            i = len(h) - 1
            while i >= 0:
                if h[i] == ")":
                    depth += 1
                elif h[i] == "(":
                    depth -= 1
                    if depth == 0:
                        break
                i -= 1
            before = h[:i].rstrip()
            macro = None
            for m in _QUAL_MACROS:
                if before.endswith(m):
                    macro = m
                    break
            if macro is not None:
                args = h[i + 1:-1]
                if macro in ("REQUIRES", "REQUIRES_SHARED",
                             "EXCLUSIVE_LOCKS_REQUIRED",
                             "SHARED_LOCKS_REQUIRED"):
                    requires.extend(
                        a.strip() for a in args.split(",") if a.strip())
                h = before[: -len(macro)]
                progressed = True
        if not progressed:
            return h, requires, no_tsa


def _param_types(core_header):
    """{param_name: normalized type} from the header's parameter list."""
    if not core_header.endswith(")"):
        return {}
    depth = 0
    i = len(core_header) - 1
    while i >= 0:
        if core_header[i] == ")":
            depth += 1
        elif core_header[i] == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    params = core_header[i + 1:-1]
    out = {}
    # Split on top-level commas only (template args contain commas too).
    parts, d, start = [], 0, 0
    for j, c in enumerate(params):
        if c in "<([":
            d += 1
        elif c in ">)]":
            d -= 1
        elif c == "," and d == 0:
            parts.append(params[start:j])
            start = j + 1
    parts.append(params[start:])
    for p in parts:
        p = p.split("=")[0].strip()
        m = re.match(r"(.+?)[\s*&]+(\w+)\s*$", p)
        if m:
            out[m.group(2)] = m.group(1).strip()
    return out


def normalize_type(t):
    """Reduce a declared type to a bare class name: peel const/ptr/ref,
    namespaces, and one-value containers (vector, unique_ptr, ...)."""
    t = t.strip()
    t = re.sub(r"\b(const|mutable|static|volatile|typename|struct|class)\b",
               "", t)
    t = t.replace("*", " ").replace("&", " ").strip()
    wrappers = ("std::vector", "std::unique_ptr", "std::shared_ptr",
                "std::optional", "std::deque", "std::array", "vector",
                "unique_ptr", "shared_ptr", "optional", "deque", "array")
    changed = True
    while changed:
        changed = False
        for w in wrappers:
            if t.startswith(w + "<") and t.endswith(">"):
                t = t[len(w) + 1:-1].strip()
                # std::array<T, N> / pair-ish: keep the first top-level arg.
                d = 0
                for j, c in enumerate(t):
                    if c == "<":
                        d += 1
                    elif c == ">":
                        d -= 1
                    elif c == "," and d == 0:
                        t = t[:j].strip()
                        break
                changed = True
                break
    t = re.sub(r"<.*>$", "", t).strip()
    if "::" in t:
        t = t.split("::")[-1]
    return t.strip()


_MEMBER_DECL = re.compile(
    r"^\s*((?:mutable\s+|static\s+|constexpr\s+|inline\s+)*)"
    r"(const\s+)?([\w:]+(?:\s*<[^;{}]*?>)?)\s*([*&]*)\s+(\w+)\s*"
    r"(GUARDED_BY\(([^)]*)\)|PT_GUARDED_BY\(([^)]*)\))?\s*"
    r"(=[^;]*|\{[^;]*\})?;", re.M)

_LOCKRANK_SITE = re.compile(
    r"\b(?:(Mutex|SharedMutex)\s+(\w+)\s*)?[({]?\s*"
    r"LockRank::(k\w+)\s*,\s*\"\"\s*(?:,\s*([^,)}]+))?\s*[)}]")


def _extract_string(raw_lines, line0, nlines=3):
    """First string literal on raw lines [line0, line0+nlines)."""
    for ln in range(line0, min(line0 + nlines, len(raw_lines))):
        m = re.search(r'"((?:[^"\\]|\\.)*)"', raw_lines[ln])
        if m:
            return m.group(1)
    return None


def _parse_lockranks(code):
    m = re.search(r"enum\s+class\s+LockRank[^{]*\{", code)
    if not m:
        return {}
    body = code[m.end():_match_brace(code, m.end() - 1)]
    return {name: int(val)
            for name, val in re.findall(r"\b(k\w+)\s*=\s*(\d+)", body)}


def _line_at(code, pos):
    return code.count("\n", 0, pos) + 1


def parse_file(program, path, raw):
    """Scan one stripped file for namespaces / classes / functions / mutex
    construction sites and merge into `program`."""
    code = strip_comments(raw)
    raw_lines = raw.split("\n")

    # Scope scan first: class spans must exist before owner lookup.
    _scan_scopes(program, path, code)

    # --- mutex construction sites (declaration-site or init-list) ---------
    for m in _LOCKRANK_SITE.finditer(code):
        decl_kind, var, rank_token, third = m.group(1), m.group(2), \
            m.group(3), m.group(4)
        line = _line_at(code, m.start())
        name = _extract_string(raw_lines, line - 1)
        if name is None:
            program.parse_gaps.append(
                f"{path}:{line}: LockRank::{rank_token} site without a "
                "recoverable name string")
            continue
        striped = third is not None and third.strip() != "kNoStripe"
        owners = _enclosing_classes(path, m.start())
        if name in program.mutexes:
            info = program.mutexes[name]
            info.striped = info.striped or striped
            if var and not info.var:
                info.var = var
            if owners and not info.owner_chain:
                info.owner_chain = tuple(owners)
                info.owner_class = owners[0]
            info.sites.append((path, line))
            if info.rank_token != rank_token:
                program.parse_gaps.append(
                    f"{path}:{line}: lock \"{name}\" constructed with "
                    f"{rank_token} here but {info.rank_token} elsewhere")
        else:
            program.mutexes[name] = MutexInfo(
                name, rank_token, striped, owners, var, (path, line))


# Class spans per file, recorded during _scan_scopes for owner lookup.
_CLASS_SPANS = {}


def _enclosing_classes(path, pos):
    """Class names whose spans contain `pos`, innermost first."""
    out = []
    for name, start, end in reversed(_CLASS_SPANS.get(path, [])):
        if start <= pos < end:
            out.append(name)
    return out


def _scan_scopes(program, path, code):
    """One linear pass: track namespace/class scopes, emit functions."""
    spans = _CLASS_SPANS.setdefault(path, [])
    stack = []  # (kind, name, close_pos)
    i = 0
    stmt_start = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == ";":
            stmt_start = i + 1
            i += 1
            continue
        if c == "}":
            while stack and stack[-1][2] <= i:
                stack.pop()
            stmt_start = i + 1
            i += 1
            continue
        if c != "{":
            i += 1
            continue

        header = code[stmt_start:i]
        # Preprocessor directives are line-scoped, not ';'-terminated, so
        # an #include/#pragma would otherwise glue onto the next
        # definition's header and disqualify it.
        if "#" in header:
            header = "\n".join(
                ln for ln in header.split("\n")
                if not ln.lstrip().startswith("#"))
        close = _match_brace(code, i)
        in_class = any(s[0] == "class" for s in stack)
        hdr_for_class = _TEMPLATE_HDR.sub(" ", header)

        nm = _NAMESPACE_HDR.search(header)
        cm = _CLASS_HDR.search(hdr_for_class) \
            if "enum" not in header else None
        if nm and "(" not in header:
            stack.append(("namespace", nm.group(1), close))
            stmt_start = i + 1
            i += 1
            continue
        if cm and "=" not in header.split("class")[0].split("struct")[0]:
            cname = cm.group(1)
            stack.append(("class", cname, close))
            spans.append((cname, i, close))
            if cname not in program.classes:
                program.classes[cname] = ClassInfo(
                    cname, "::".join(s[1] for s in stack if s[1]), path)
            stmt_start = i + 1
            i += 1
            continue

        # Candidate function definition: header's core must end in a
        # balanced parameter list. Constructor init-lists are cut off first.
        fn_header = header
        init_split = _CTOR_INIT_SPLIT.search(fn_header)
        if init_split:
            fn_header = fn_header[:init_split.start() + 1]
        core, requires, no_tsa = _strip_qualifiers(fn_header)
        is_func = False
        fname = None
        ret = ""
        if core.endswith(")") and "(" in core:
            depth, j = 0, len(core) - 1
            while j >= 0:
                if core[j] == ")":
                    depth += 1
                elif core[j] == "(":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            nmatch = _FUNC_NAME.search(core[:j])
            if nmatch:
                fname = re.sub(r"\s+", "", nmatch.group(1))
                base = fname.split("::")[-1].lstrip("~")
                if base and base not in _CONTROL_KEYWORDS \
                        and not header.lstrip().startswith("#"):
                    is_func = True
                    ret = core[:nmatch.start()].replace("[[nodiscard]]", "")
                    ret = re.sub(
                        r"\b(static|inline|virtual|explicit|friend|"
                        r"constexpr)\b", "", ret).strip()

        if is_func:
            cls = None
            if "::" in fname:
                parts = fname.split("::")
                cls, fname_short = parts[-2], parts[-1]
            else:
                fname_short = fname
                for s in reversed(stack):
                    if s[0] == "class":
                        cls = s[1]
                        break
            qual = f"{cls}::{fname_short}" if cls else fname_short
            fn = FunctionInfo(
                qual, cls, fname_short, path,
                header.strip(), code[i:close + 1],
                _line_at(code, i), requires, no_tsa, _param_types(core),
                ret=ret)
            program.functions.append(fn)
            program.functions_by_name.setdefault(fname_short, []).append(fn)
            i = close + 1
            stmt_start = i
            continue

        # Unclassifiable at class/namespace scope: default member init
        # braces, aggregate initializers, enum bodies. Consume inline.
        if in_class or not stack or stack[-1][0] in ("namespace", "class"):
            i = close + 1
            # Header keeps accumulating until the next ';' (member decl).
            continue
        i += 1

    # Member declarations & GUARDED_BY fields, per class span.
    for cname, start, end in spans:
        cls = program.classes.get(cname)
        if cls is None:
            continue
        body = code[start + 1:end]  # inside the class braces
        # Blank out nested function bodies so their locals don't read as
        # member declarations.
        blanked = _blank_nested_braces(body)
        for m in _MEMBER_DECL.finditer(blanked):
            quals, constp, type_str = m.group(1), m.group(2), m.group(3)
            ptr, field = m.group(4), m.group(5)
            if field in ("const", "override"):
                continue
            cls.members.setdefault(field, normalize_type(type_str))
            cls.member_lines.setdefault(
                field, _line_at(code, start + 1 + m.start()))
            if ("static" in quals or "constexpr" in quals
                    or (constp and not ptr)):
                cls.const_members.add(field)
            if m.group(6):  # GUARDED_BY / PT_GUARDED_BY
                cls.annotated.add(field)
            if m.group(7):  # GUARDED_BY
                cls.guarded.append(
                    (field, m.group(7).strip(),
                     _line_at(code, start + 1 + m.start())))
        # Method DECLARATIONS carrying REQUIRES (definitions may be in .cc).
        for dm in re.finditer(
                r"(\w+)\s*\(([^;{}()]*(?:\([^()]*\)[^;{}()]*)*)\)\s*"
                r"((?:const|noexcept|override|final|\s)*)"
                r"((?:(?:REQUIRES(?:_SHARED)?|"
                r"(?:EXCLUSIVE|SHARED)_LOCKS_REQUIRED)"
                r"\s*\([^)]*\)\s*)+)[^;{]*;",
                blanked):
            args = []
            for rm in re.finditer(
                    r"(?:REQUIRES(?:_SHARED)?|"
                    r"(?:EXCLUSIVE|SHARED)_LOCKS_REQUIRED)\s*\(([^)]*)\)",
                    dm.group(4)):
                args.extend(a.strip() for a in rm.group(1).split(",")
                            if a.strip())
            if args:
                cls.decl_requires.setdefault(dm.group(1), []).extend(args)


def _blank_nested_braces(body):
    """Replace top-level nested {...} regions (method bodies, nested class
    bodies) inside a class body with spaces, preserving length/newlines."""
    out = list(body)
    depth = 0
    for i, c in enumerate(body):
        if c == "{":
            depth += 1
            if depth >= 1:
                out[i] = " "
        elif c == "}":
            if depth >= 1:
                out[i] = " "
            depth -= 1
        elif depth >= 1 and c != "\n":
            out[i] = " "
    return "".join(out)


def parse_file_fragment(item):
    """Parse ONE file into a self-contained Program fragment. Fragments are
    plain picklable objects: they fan out across a multiprocessing pool
    (--jobs) and round-trip through the content-hash cache, then merge in
    deterministic path order."""
    path, raw = item
    frag = Program()
    _CLASS_SPANS.pop(path, None)
    parse_file(frag, path, raw)
    return frag


def _merge_fragment(program, frag):
    """Merge a file fragment into the whole-program model with the same
    semantics the old sequential scan had (first declaration wins, member
    tables union, mutex sites accumulate)."""
    for fn in frag.functions:
        program.functions.append(fn)
        program.functions_by_name.setdefault(fn.name, []).append(fn)
    for cname, src in frag.classes.items():
        dst = program.classes.get(cname)
        if dst is None:
            program.classes[cname] = src
            continue
        for field, t in src.members.items():
            dst.members.setdefault(field, t)
        for field, line in src.member_lines.items():
            dst.member_lines.setdefault(field, line)
        dst.annotated |= src.annotated
        dst.const_members |= src.const_members
        for g in src.guarded:
            if g not in dst.guarded:
                dst.guarded.append(g)
        for mname, args in src.decl_requires.items():
            dst.decl_requires.setdefault(mname, []).extend(args)
        for b in src.bases:
            if b not in dst.bases:
                dst.bases.append(b)
    for name, src in frag.mutexes.items():
        dst = program.mutexes.get(name)
        if dst is None:
            program.mutexes[name] = src
            continue
        dst.striped = dst.striped or src.striped
        if src.var and not dst.var:
            dst.var = src.var
        if src.owner_chain and not dst.owner_chain:
            dst.owner_chain = src.owner_chain
            dst.owner_class = src.owner_class
        dst.sites.extend(src.sites)
        if dst.rank_token != src.rank_token:
            program.parse_gaps.append(
                f"lock \"{name}\" constructed with {src.rank_token} and "
                f"{dst.rank_token} at different sites")
    program.parse_gaps.extend(frag.parse_gaps)


def _cache_key(path, raw):
    h = hashlib.sha256()
    h.update(f"v{PARSER_VERSION}:{path}:".encode())
    h.update(raw.encode())
    return h.hexdigest()


def _cache_load(cache_dir, path, raw):
    if cache_dir is None:
        return None
    entry = os.path.join(cache_dir, _cache_key(path, raw) + ".pickle")
    try:
        with open(entry, "rb") as f:
            return pickle.load(f)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError):
        return None  # miss or stale/corrupt entry: reparse


def _cache_store(cache_dir, path, raw, frag):
    if cache_dir is None:
        return
    try:
        os.makedirs(cache_dir, exist_ok=True)
        entry = os.path.join(cache_dir, _cache_key(path, raw) + ".pickle")
        tmp = entry + f".tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            pickle.dump(frag, f)
        os.replace(tmp, entry)
    except OSError:
        pass  # cache is best-effort; never fail the parse over it


def parse_program(sources, jobs=1, cache_dir=None):
    """Build a Program from {relative_path: raw_text}. The LockRank enum is
    read from the file named common/mutex.h (any prefix); mutex.{h,cc}
    themselves are otherwise excluded (they implement the runtime checker
    and legally use raw primitives).

    `jobs` > 1 parses files on a process pool; `cache_dir` (if set) caches
    per-file fragments keyed by content hash + PARSER_VERSION. Both paths
    merge fragments in sorted path order, so the result is byte-identical
    to the sequential parse."""
    program = Program()
    _CLASS_SPANS.clear()
    mutex_h = None
    for path in sorted(sources):
        norm = path.replace(os.sep, "/")
        if norm.endswith("common/mutex.h"):
            mutex_h = sources[path]
    if mutex_h is not None:
        program.ranks = _parse_lockranks(strip_comments(mutex_h))

    items = [(path, sources[path]) for path in sorted(sources)
             if not path.replace(os.sep, "/").endswith(
                 ("common/mutex.h", "common/mutex.cc"))]
    frags = {}
    pending = []
    for path, raw in items:
        frag = _cache_load(cache_dir, path, raw)
        if frag is not None:
            frags[path] = frag
        else:
            pending.append((path, raw))
    if jobs > 1 and len(pending) > 1:
        with multiprocessing.Pool(min(jobs, len(pending))) as pool:
            parsed = pool.map(parse_file_fragment, pending)
    else:
        parsed = [parse_file_fragment(it) for it in pending]
    for (path, raw), frag in zip(pending, parsed):
        frags[path] = frag
        _cache_store(cache_dir, path, raw, frag)
    for path, _ in items:
        _merge_fragment(program, frags[path])

    for info in program.mutexes.values():
        info.rank = program.ranks.get(info.rank_token)
        if info.rank is None:
            program.parse_gaps.append(
                f"lock \"{info.name}\": unknown rank token "
                f"{info.rank_token}")
    return program


def load_tree(repo_root, subdir="src"):
    """{relative_path: text} for every C++ file under `subdir`."""
    sources = {}
    base = os.path.join(repo_root, subdir)
    for root, _, names in os.walk(base):
        for name in sorted(names):
            if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                full = os.path.join(root, name)
                rel = os.path.relpath(full, repo_root)
                with open(full, encoding="utf-8") as f:
                    sources[rel] = f.read()
    return sources
