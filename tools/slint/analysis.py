"""Per-function lock summaries, call-graph resolution, and closures.

The core abstraction is the *held-set*: a linear scan of each function body
computes, for every interesting position (call site, blocking primitive,
guarded-field access, lock acquisition), the set of lock NAMES held there.
RAII guards hold to the end of their enclosing block; raw Lock()/Unlock()
pairs hold between the matched calls, with two deliberate refinements
matched to this codebase's idioms:

  * an Unlock in a deeper block that exits (return/break/continue before
    the block closes) is an early-out release and does not end the
    main-path region (StreamObject::Append's error returns);
  * re-acquiring a name already held is skipped (the re-lock after a
    branch-dependent release; true recursive locking is the runtime
    checker's catch).

Lambdas are analyzed where they run: a lambda passed to ThreadPool::Submit
or ParallelFor executes on a worker with an empty held-set, so its body is
excised into a synthetic deferred function; every other lambda body stays
inline in its enclosing function. ParallelFor itself is modelled at its
call sites (a blocking call, like Submit + Wait), not through its body.

Call resolution is by qualified-name heuristics: receiver member/local/param
type first, own class second, globally unique name third. Anything else
lands in the ambiguity report rather than silently growing or shrinking the
graph.
"""

import re

from .parsing import normalize_type

# ---------------------------------------------------------------------------
# Body-level patterns (stripped text).
# ---------------------------------------------------------------------------

_RAII = re.compile(
    r"\b(MutexLock|WriterMutexLock|ReaderMutexLock)\s+\w+\s*[({]\s*"
    r"&\s*([\w.\[\]*>-]+?)\s*[,)}]")
_RAW_LOCK = re.compile(
    r"(?:\.|->)\s*(Lock|LockShared|LockCounted|LockSharedCounted|"
    r"Unlock|UnlockShared)\s*\(\s*\)")
_SLEEP = re.compile(
    r"std::this_thread::sleep_(?:for|until)\b"
    r"|\b(?:::)?(?:sleep|usleep|nanosleep)\s*\("
    r"|(?:\.|->)Sleep(?:For|Until)\s*\(")
_JOIN = re.compile(r"\.join\s*\(\s*\)")
_POOL_WAIT = re.compile(r"(?:\.|->)\s*Wait\s*\(\s*\)")
_SUBMIT = re.compile(r"(?:\.|->)\s*Submit\s*\(")
_PARALLEL_FOR = re.compile(r"(?<![\w.>])(?:\w+::)*ParallelFor\s*\(")
_CONDVAR_WAIT = re.compile(
    r"(?:\.|->)\s*Wait(?:For)?\s*\(\s*&\s*([\w.\[\]*>-]+?)\s*[,)]")
_ASSERT_HELD = re.compile(r"([\w.\[\]*>-]+?)\s*(?:\.|->)\s*AssertHeld\s*\(")
_CALL = re.compile(r"(?<![\w.:>])((?:\w+::)+\w+|\w+)\s*\(")
_METHOD_CALL = re.compile(r"(\.|->)\s*(\w+)\s*\(")
_LAMBDA = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*)?"
    r"(?:->\s*[\w:<>&*\s]+?\s*)?\{")
_DEVICE_HOOK = re.compile(r"\bio(?:_read)?_delay_hook\s*\(")

# --- error-path / shared-state patterns (checks S5-S7) ---------------------

# Method names whose calls mutate externally visible state: PLog appends,
# KV/metadata puts, object-store writes/creates, cache/table inserts,
# catalog deletes. Name-matching is only the first net: a matched call
# that RESOLVES to in-program callees reaching no durable-write root is
# dropped again by effective_mutations() — that is how ScmSliceCache::Put
# (self-healing) and WriteBatch::Put (staging) fall out while
# Table::Insert (a real commit) stays in.
_MUTATION_NAMES = frozenset((
    "Append", "AppendKeyed", "AppendEntry", "AppendBatch", "Put",
    "PutCommit", "PutSnapshot", "PutTableInfo", "Write", "WriteBatch",
    "WriteEntry", "CreateObject", "CreateTable", "Insert", "Delete",
    "DeleteEntry", "DeleteCommit", "DeleteSnapshot", "DeleteTableInfo",
    "Remove"))
# Delete-kind mutations are idempotent: a torn delete protocol leaves
# re-drivable garbage, never an inconsistently *referenced* state, so
# functions whose durable mutations are ALL delete-kind are exempt from
# S6 (re-running the delete IS the rollback).
_DELETE_KIND = re.compile(
    r"^(Delete|Remove|Destroy|Drop|Erase|Expire|Trim|MarkGarbage|Unlink"
    r"|Evict|Invalidate)")
# Ground-truth mutation roots: the atomic durable-write primitives of the
# storage layer. Everything below them (per-extent device writes, WAL
# segment appends, stripe applies) is the primitive's own implementation,
# covered by the seal/repair/WAL-replay machinery, and everything above
# them inherits "mutates durable state" by reaching one of these.
_ROOT_MUTATIONS = frozenset(("KvStore::Write", "PlogStore::Append"))
# Calls that undo earlier mutations on an error path. A Delete/Remove/erase
# whose Status is explicitly discarded (.IgnoreError()/.LogIgnored()) is
# best-effort cleanup, i.e. an undo, not a mutation.
_UNDO_NAMES = frozenset(("MarkGarbage", "Rollback", "Abort", "Undo"))
_DISCARD_SUFFIX = re.compile(r"\s*\.\s*(IgnoreError|LogIgnored)\s*\(")
_ERR_MACRO = re.compile(r"\bSL_(?:RETURN_NOT_OK|ASSIGN_OR_RETURN)\s*\(")
_ERR_RETURN = re.compile(r"\breturn\s+Status\s*::\s*(?!OK\b)\w+\s*\(")
# Operations that make state visible to readers: a catalog-version bump
# (PutTableInfo & friends) or a member-map publish (`objects_[id] = ...`).
_PUBLISH_NAMES = frozenset(("PutTableInfo",))
_MAP_PUBLISH = re.compile(r"\b(\w+_)\s*\[[^\]]*\]\s*=(?!=)")
_LOOP_HDR = re.compile(r"\b(?:for|while)\s*\(")
_FALLIBLE_RET = re.compile(r"\b(?:Status|Result\s*<)")

_NOT_CALLS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do",
    "new", "delete", "throw", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "static_assert", "alignof", "decltype", "defined",
    "assert", "emplace", "emplace_back", "push_back", "insert", "erase",
    "find", "count", "begin", "end", "size", "empty", "clear", "reserve",
    "resize", "at", "front", "back", "get", "reset", "release", "swap",
    "substr", "append", "c_str", "data", "length", "compare", "make_pair",
    "make_unique", "make_shared", "move", "forward", "min", "max", "abs",
    "to_string", "stoull", "stoul", "stoi", "snprintf", "memcpy", "memset",
    "push", "pop", "top", "load", "store", "exchange", "fetch_add",
    "fetch_sub", "compare_exchange_weak", "compare_exchange_strong"))


class Summary:
    """Everything the checks need to know about one function."""

    def __init__(self):
        self.acquisitions = []     # (lock_name, pos)
        self.intra_edges = []      # (from_name, to_name, pos)
        self.calls = []            # CallSite
        self.blocking = []         # (kind, detail, pos, frozenset(held))
        self.guarded_uses = []     # (field, guard_name, pos, held_bool)
        self.callback_holds = []   # frozenset(held) at callback invocations
        self.unresolved_locks = []  # (expr, pos)
        # Error-path / shared-state facts (checks S6/S7):
        self.mutations = []        # (desc, pos) direct durable mutations
        self.undos = []            # (desc, pos) rollback/cleanup calls
        self.error_returns = []    # positions of early error returns
        self.publishes = []        # (desc, pos) visibility flips
        self.loops = []            # (start, end) loop body spans


class CallSite:
    def __init__(self, raw, pos, held, targets, lambdas, recv=None,
                 discarded=False):
        self.raw = raw            # textual callee
        self.pos = pos
        self.held = held          # frozenset of lock names
        self.targets = targets    # [FunctionInfo] (empty = external/unknown)
        self.lambdas = lambdas    # [FunctionInfo] synthetic lambda args
        self.recv = recv          # receiver expression or None
        self.discarded = discarded  # .IgnoreError()/.LogIgnored() suffix


class Analysis:
    def __init__(self, program):
        self.program = program
        self.ambiguities = []     # (path, line, text)
        self.lambda_funcs = []
        self._mutex_by_var = {}
        for info in program.mutexes.values():
            if info.var:
                self._mutex_by_var.setdefault(info.var, []).append(info)
        self._closure_cache = {}
        self._blocking_cache = {}
        self._mutation_cache = {}
        self._effmut_cache = {}
        self._escaped_cache = None
        self._run()

    # -- lock reference resolution ----------------------------------------

    def resolve_lock(self, expr, fn):
        """Lock NAME for an `&expr` reference, or None. Matches the final
        member/variable identifier against mutex construction sites,
        preferring the function's own class (including its nested
        structs, via each mutex's owner chain)."""
        ident = re.findall(r"\w+", re.sub(r"\[[^\]]*\]", "", expr))
        if not ident:
            return None
        var = ident[-1]
        candidates = self._mutex_by_var.get(var, [])
        if len(candidates) == 1:
            return candidates[0].name
        if fn.cls:
            own = [c for c in candidates if fn.cls in c.owner_chain]
            if len(own) == 1:
                return own[0].name
        if len(ident) >= 2:
            # A member of a member: resolve the receiver's class.
            recv_cls = self._receiver_class(ident[-2], fn)
            scoped = [c for c in candidates
                      if recv_cls is not None and recv_cls in c.owner_chain]
            if len(scoped) == 1:
                return scoped[0].name
        return None

    def _receiver_class(self, var, fn):
        """Class name a receiver variable refers to, via param / member /
        local-declaration types."""
        t = fn.param_types.get(var)
        if t is None and fn.cls and fn.cls in self.program.classes:
            t = self.program.classes[fn.cls].members.get(var)
        if t is None:
            m = re.search(
                r"([\w:]+(?:<[^;=(]*>)?)[\s*&]+" + re.escape(var) +
                r"\s*[({=;]", fn.body)
            if m and m.group(1) not in ("return", "auto"):
                t = m.group(1)
        if t is None:
            return None
        return normalize_type(t)

    def _receiver_class_chain(self, expr, fn):
        """Class of a possibly-chained receiver expression: `extent.device`
        resolves `extent`'s type, then walks member `device` through the
        class member tables. None when any hop is unknown."""
        parts = re.findall(r"\w+", re.sub(r"\[[^\]]*\]", "", expr))
        if parts and parts[0] == "this":
            parts = parts[1:]
            cls = fn.cls
            if not parts:
                return cls
        elif parts:
            cls = self._receiver_class(parts[0], fn)
        else:
            return None
        for member in parts[1:]:
            if cls is None or cls not in self.program.classes:
                cls = None
                break
            t = self.program.classes[cls].members.get(member)
            cls = normalize_type(t) if t else None
        if cls is None and len(parts) >= 2:
            # The chain broke (e.g. a hop through a function-local struct
            # the scanner never sees). If the FINAL member name has exactly
            # one declared type across every class in the program, that
            # type is the receiver: `p.route.worker->` resolves through the
            # unique `worker` member even though `p` is opaque.
            types = {normalize_type(t)
                     for c in self.program.classes.values()
                     for f, t in c.members.items() if f == parts[-1]}
            if len(types) == 1:
                cls = next(iter(types))
        return cls

    # -- call resolution ---------------------------------------------------

    def resolve_call(self, name, recv_var, fn):
        """[FunctionInfo] targets for a call, [] if external, None if
        ambiguous (recorded by caller)."""
        cands = self.program.functions_by_name.get(name, [])
        if not cands:
            return []
        if recv_var is not None:
            recv_cls = self._receiver_class_chain(recv_var, fn)
            if recv_cls is not None:
                scoped = [c for c in cands if c.cls == recv_cls]
                if scoped:
                    return scoped
                return []  # known class, method not in program: external
            # this-> or unknown receiver: fall through to heuristics below.
        if fn.cls:
            own = [c for c in cands if c.cls == fn.cls]
            if own:
                return own
        if len({c.qualname for c in cands}) == 1:
            return cands
        return None

    # -- body scanning -----------------------------------------------------

    def _run(self):
        # Excise Submit / ParallelFor lambdas into synthetic deferred
        # functions first,
        # then summarize everything. Call-argument lambdas are synthesized
        # and summarized on the fly by _lambda_args.
        self._lambda_cache = {}
        deferred = []
        for fn in list(self.program.functions):
            fn.body, lams = _excise_submit_lambdas(self, fn)
            deferred.extend(lams)
        for fn in self.program.functions:
            fn.summary = self._summarize(fn)
        for lam in deferred:
            lam.summary = self._summarize(lam)
        self.all_functions = self.program.functions + self.lambda_funcs
        self.by_qualname = {}
        for fn in self.all_functions:
            self.by_qualname.setdefault(fn.qualname, fn)

    def _summarize(self, fn):
        s = Summary()
        body = fn.body
        block_end = _block_ends(body)

        # Locks held over the whole body: REQUIRES on the definition or the
        # in-class declaration.
        req = list(fn.requires)
        if fn.cls and fn.cls in self.program.classes:
            req += self.program.classes[fn.cls].decl_requires.get(fn.name, [])
        whole = set()
        for expr in req:
            name = self.resolve_lock(expr, fn)
            if name:
                whole.add(name)
            elif expr not in ("mu",):  # CondVar::Wait's own param
                s.unresolved_locks.append((expr, 0))

        # Region list: (start, end, name).
        regions = []
        for m in _RAII.finditer(body):
            name = self.resolve_lock(m.group(2), fn)
            if name is None:
                s.unresolved_locks.append((m.group(2), m.start()))
                continue
            regions.append((m.start(), block_end.get(m.start(), len(body)),
                            name, "raii"))
        raw_events = []
        for m in _RAW_LOCK.finditer(body):
            expr = _receiver_expr(body, m.start())
            name = self.resolve_lock(expr, fn)
            if name is None:
                s.unresolved_locks.append((expr or "?", m.start()))
                continue
            kind = "unlock" if m.group(1).startswith("Un") else "lock"
            raw_events.append((m.start(), kind, name))
        depth_at = _depths(body)
        open_locks = {}
        for pos, kind, name in raw_events:
            if kind == "lock":
                open_locks.setdefault(name, []).append((pos, depth_at[pos]))
            else:
                stack = open_locks.get(name)
                if not stack:
                    continue
                lpos, ldepth = stack[-1]
                if depth_at[pos] > ldepth and \
                        _branch_exits(body, pos, block_end):
                    continue  # early-out release on an error path
                stack.pop()
                regions.append((lpos, pos, name, "raw"))
        for name, stack in open_locks.items():
            for lpos, _ in stack:
                regions.append((lpos, len(body), name, "raw"))
        for m in _ASSERT_HELD.finditer(body):
            name = self.resolve_lock(m.group(1), fn)
            if name:
                regions.append((m.start(), len(body), name, "assert"))

        def held_at(pos):
            h = set(whole)
            for start, end, name, _ in regions:
                if start <= pos < end:
                    h.add(name)
            return frozenset(h)

        # Deduplicate self-reacquisition: drop regions whose lock name is
        # already held at their start by an earlier region.
        kept = []
        for r in sorted(regions):
            start, end, name, kind = r
            covered = name in whole or any(
                ks <= start < ke for ks, ke, kn, _ in kept if kn == name)
            if covered and kind != "assert":
                continue
            kept.append(r)
        regions = kept

        # Acquisitions + intraprocedural edges.
        for start, end, name, kind in sorted(regions):
            if kind == "assert":
                continue
            h = held_at(start - 1) if start > 0 else frozenset(whole)
            s.acquisitions.append((name, start))
            for other in h:
                if other != name:
                    s.intra_edges.append((other, name, start))

        # Blocking primitives.
        for m in _SLEEP.finditer(body):
            s.blocking.append(("sleep", m.group(0).strip(), m.start(),
                               held_at(m.start())))
        for m in _JOIN.finditer(body):
            s.blocking.append(("join", ".join()", m.start(),
                               held_at(m.start())))
        for m in _CONDVAR_WAIT.finditer(body):
            name = self.resolve_lock(m.group(1), fn) or m.group(1)
            s.blocking.append(("condvar", name, m.start(),
                               held_at(m.start())))
        for m in _POOL_WAIT.finditer(body):
            s.blocking.append(("pool-wait", "ThreadPool::Wait", m.start(),
                               held_at(m.start())))
        for m in _SUBMIT.finditer(body):
            s.blocking.append(("submit", "ThreadPool::Submit", m.start(),
                               held_at(m.start())))
        for m in _PARALLEL_FOR.finditer(body):
            s.blocking.append(("parallel-for", "ParallelFor", m.start(),
                               held_at(m.start())))
        for m in _DEVICE_HOOK.finditer(body):
            s.blocking.append(("device-io", m.group(0).rstrip("( \t"),
                               m.start(), held_at(m.start())))

        # Guarded-field accesses (own class only; constructors/destructors
        # exempt — they run before the object is shared).
        if fn.cls and fn.cls in self.program.classes and \
                fn.name.lstrip("~") != fn.cls:
            for field, guard, _ in self.program.classes[fn.cls].guarded:
                guard_name = self.resolve_lock(guard, fn)
                if guard_name is None:
                    continue
                for m in re.finditer(r"\b%s\b" % re.escape(field), body):
                    # Skip declarations of same-named locals (rare).
                    s.guarded_uses.append(
                        (field, guard_name, m.start(),
                         guard_name in held_at(m.start())))

        # Call sites.
        seen_spans = set()
        for m in _METHOD_CALL.finditer(body):
            name = m.group(2)
            if name in _NOT_CALLS or _RAW_LOCK.match(body, m.start()):
                continue
            recv = _receiver_expr(body, m.start())
            recv_var = recv if re.search(r"\w", recv) else None
            self._add_call(s, fn, name, recv_var, m.start(), held_at,
                           body)
            seen_spans.add(m.end(2))
        for m in _CALL.finditer(body):
            name = m.group(1).split("::")[-1]
            if m.end(1) in seen_spans or name in _NOT_CALLS:
                continue
            prev = body[max(0, m.start() - 1):m.start()]
            if prev in (".", ">", ":"):
                continue
            recv_var = None
            if "::" in m.group(1):
                # Explicit qualification: Class::Method or ns::func.
                qual = m.group(1).split("::")[-2]
                cands = [c for c in
                         self.program.functions_by_name.get(name, [])
                         if c.cls == qual]
                if cands:
                    s.calls.append(CallSite(m.group(1), m.start(),
                                            held_at(m.start()), cands, [],
                                            recv=None))
                    continue
            self._add_call(s, fn, name, recv_var, m.start(), held_at, body,
                           bare=True)

        # Callback invocations: calling a std::function-typed parameter.
        for pname, ptype in fn.param_types.items():
            if "function" not in ptype:
                continue
            for m in re.finditer(r"\b%s\s*\(" % re.escape(pname), body):
                h = held_at(m.start())
                if h:
                    s.callback_holds.append(h)

        # Error-path facts (S6/S7): early error returns, loop spans,
        # mutation/undo/publish sites.
        for m in _ERR_MACRO.finditer(body):
            s.error_returns.append(m.start())
        for m in _ERR_RETURN.finditer(body):
            s.error_returns.append(m.start())
        s.error_returns.extend(_notok_returns(body))
        s.error_returns = sorted(set(s.error_returns))
        s.loops = _loop_spans(body)
        for m in _METHOD_CALL.finditer(body):
            name = m.group(2)
            close = _call_close(body, m.start())
            discarded = close is not None and \
                _DISCARD_SUFFIX.match(body, close) is not None
            recv = _receiver_expr(body, m.start())
            desc = f"{recv}->{name}" if recv else name
            if name in _UNDO_NAMES or \
                    (discarded and name in _MUTATION_NAMES):
                s.undos.append((desc, m.start()))
            elif name in _MUTATION_NAMES and not discarded:
                s.mutations.append((desc, m.start()))
            if name in _PUBLISH_NAMES or name.startswith("Publish"):
                s.publishes.append((desc, m.start()))
        if fn.cls and fn.cls in self.program.classes:
            members = self.program.classes[fn.cls].members
            for m in _MAP_PUBLISH.finditer(body):
                if m.group(1) in members:
                    s.publishes.append((f"{m.group(1)}[...] =", m.start()))

        return s

    def _add_call(self, s, fn, name, recv_var, pos, held_at, body,
                  bare=False):
        if bare and name in self.program.classes:
            return  # constructor call / local declaration
        if bare and fn.cls is None and \
                name not in self.program.functions_by_name:
            return
        targets = self.resolve_call(name, recv_var, fn)
        if targets is None:
            self.ambiguities.append(
                (fn.path, fn.line_of(pos),
                 f"{fn.qualname}: call to {name}() is ambiguous "
                 f"({len(self.program.functions_by_name.get(name, []))} "
                 "candidates); dropped from the graph"))
            targets = []
        if not targets and name not in self.program.functions_by_name:
            return  # external (std::, gtest, libc): no model needed
        lambdas = _lambda_args(self, fn, pos, body)
        close = _call_close(body, pos)
        discarded = close is not None and \
            _DISCARD_SUFFIX.match(body, close) is not None
        s.calls.append(CallSite(name, pos, held_at(pos), targets, lambdas,
                                recv=recv_var, discarded=discarded))

    # -- closures ----------------------------------------------------------

    def acquired_closure(self, fn, _stack=None):
        """Set of lock names `fn` (or anything it synchronously reaches) can
        acquire."""
        if fn.qualname in self._closure_cache:
            return self._closure_cache[fn.qualname]
        _stack = _stack or set()
        if fn.qualname in _stack:
            return set()
        _stack.add(fn.qualname)
        out = {name for name, _ in fn.summary.acquisitions}
        for call in fn.summary.calls:
            for t in call.targets:
                out |= self.acquired_closure(t, _stack)
            for lam in call.lambdas:
                out |= self.acquired_closure(lam, _stack)
        _stack.discard(fn.qualname)
        self._closure_cache[fn.qualname] = out
        return out

    def blocking_closure(self, fn, _stack=None):
        """{(kind, detail): witness_chain} of blocking roots reachable from
        `fn`. ThreadPool's and ParallelFor's own internals are excluded:
        their blocking behaviour is modelled by the submit / pool-wait /
        parallel-for call-site patterns."""
        if fn.qualname in self._blocking_cache:
            return self._blocking_cache[fn.qualname]
        _stack = _stack or set()
        if fn.qualname in _stack:
            return {}
        _stack.add(fn.qualname)
        out = {}
        if fn.cls != "ThreadPool" and \
                not (fn.cls is None and fn.name == "ParallelFor"):
            for kind, detail, pos, _ in fn.summary.blocking:
                out.setdefault((kind, detail),
                               [f"{fn.qualname} [{fn.path}:"
                                f"{fn.line_of(pos)}]"])
            for call in fn.summary.calls:
                for t in call.targets + call.lambdas:
                    for key, chain in self.blocking_closure(
                            t, _stack).items():
                        out.setdefault(
                            key,
                            [f"{fn.qualname} [{fn.path}:"
                             f"{fn.line_of(call.pos)}]"] + chain)
        _stack.discard(fn.qualname)
        self._blocking_cache[fn.qualname] = out
        return out

    def effective_mutations(self, fn, _stack=None):
        """[(desc, pos)] direct durable mutations of `fn` that survive
        resolution: a name-matched call is dropped when it resolves wholly
        to in-program callees none of which reach a mutation root —
        `WriteBatch::Put` stages into a local buffer, `ScmSliceCache::Put`
        self-heals on miss, `LakeFileWriter::AppendBatch` builds an
        in-memory file. Unresolved/external calls stay conservative."""
        if fn.qualname in self._effmut_cache:
            return self._effmut_cache[fn.qualname]
        call_at = {c.pos: c for c in fn.summary.calls}
        out = []
        for desc, pos in fn.summary.mutations:
            c = call_at.get(pos)
            if c and c.targets and not any(
                    self.mutation_closure(t, _stack) for t in c.targets):
                continue
            out.append((desc, pos))
        self._effmut_cache[fn.qualname] = out
        return out

    def mutation_closure(self, fn, _stack=None):
        """{mutation_desc: witness_chain} of durable externally-visible
        mutations reachable from `fn` — the S6 analogue of
        blocking_closure. A call to a function with a non-empty mutation
        closure counts as a mutation at that call site. Two kinds of
        functions export nothing to their callers: none (the closure stops
        at them) —

        * mutation roots (`_ROOT_MUTATIONS`): they export themselves as a
          single opaque primitive; their internals (stripe writes, WAL
          segment appends) belong to the seal/repair/replay machinery;
        * publishers: a callee that completes its own visibility flip
          (catalog bump, map publish) is a finished transaction, not
          dangling preparatory state, so callers need no undo for it.
        """
        if fn.qualname in self._mutation_cache:
            return self._mutation_cache[fn.qualname]
        _stack = _stack or set()
        if fn.qualname in _stack:
            return {}
        if fn.qualname in _ROOT_MUTATIONS:
            out = {fn.qualname: [f"{fn.qualname} "
                                 f"[{fn.path}:{fn.body_line}] "
                                 "(durable write primitive)"]}
            self._mutation_cache[fn.qualname] = out
            return out
        if fn.summary.publishes:
            self._mutation_cache[fn.qualname] = {}
            return {}
        _stack.add(fn.qualname)
        out = {}
        for desc, pos in self.effective_mutations(fn, _stack):
            out.setdefault(desc,
                           [f"{fn.qualname} [{fn.path}:{fn.line_of(pos)}]"])
        for call in fn.summary.calls:
            if call.discarded:
                continue  # best-effort cleanup: cannot fail the caller
            for t in call.targets + call.lambdas:
                for key, chain in self.mutation_closure(t, _stack).items():
                    out.setdefault(
                        key,
                        [f"{fn.qualname} [{fn.path}:"
                         f"{fn.line_of(call.pos)}]"] + chain)
        _stack.discard(fn.qualname)
        self._mutation_cache[fn.qualname] = out
        return out

    # -- thread-escape (S5) ------------------------------------------------

    def _local_value_recv(self, caller, recv):
        """True when a call's receiver is a function-local VALUE object of
        the caller — a per-call private instance that never escapes to
        another thread (e.g. `CachedFileReader reader(...)` in a scan
        job). Pointer/reference locals stay conservative (they may alias
        shared state)."""
        if not recv or recv == "this":
            return False
        idents = re.findall(r"\w+", recv)
        if not idents:
            return False
        v = idents[0]
        if v == "this" or v in caller.param_types:
            return False
        if caller.cls and caller.cls in self.program.classes and \
                v in self.program.classes[caller.cls].members:
            return False
        m = re.search(
            r"(?:^|[;{}\n])\s*([\w:]+(?:<[^;=(]*>)?)\s+" + re.escape(v) +
            r"\s*[({;=]", caller.body)
        return bool(m and m.group(1) not in ("return", "auto"))

    def escaped_classes(self):
        """{class_name: reason} for every class whose instances are
        thread-shared: it owns synchronization state (a mutex, condvar, or
        atomic member — the class itself declares concurrent entry), or
        its methods are reachable from a deferred Submit / ParallelFor
        lambda through non-local receivers (the instance escapes onto a
        pool worker)."""
        if self._escaped_cache is not None:
            return self._escaped_cache
        shared = {}
        for cname, ci in self.program.classes.items():
            for field, t in ci.members.items():
                if t in ("Mutex", "SharedMutex", "CondVar") or \
                        "atomic" in t:
                    shared.setdefault(
                        cname, f"owns synchronization member \"{field}\"")
                    break
        work = [(lam, f"Submit lambda {lam.qualname}")
                for lam in self.lambda_funcs if lam.deferred]
        # A deferred lambda that invokes a LOCAL lambda variable of its
        # enclosing function (`auto run_job = [&](...) {...}` then
        # `Submit([&]{ run_job(i); })`) runs the enclosing function's
        # inline-lambda code on a pool worker; the call cannot resolve by
        # name, so conservatively treat the whole enclosing function as
        # worker-reachable.
        for lam in self.lambda_funcs:
            if not lam.deferred or "::<lambda@" not in lam.qualname:
                continue
            parent = self.by_qualname.get(
                lam.qualname.rsplit("::<lambda@", 1)[0])
            if parent is None:
                continue
            for m in re.finditer(r"\b(\w+)\s*\(", lam.body):
                if re.search(r"\b%s\s*=\s*\[" % re.escape(m.group(1)),
                             parent.body):
                    work.append(
                        (parent, f"Submit lambda {lam.qualname} runs "
                                 f"local lambda {m.group(1)}"))
                    break
        seen = set()
        while work:
            fn, reason = work.pop()
            if fn.qualname in seen:
                continue
            seen.add(fn.qualname)
            if fn.cls:
                shared.setdefault(fn.cls, reason)
            for call in fn.summary.calls:
                if self._local_value_recv(fn, call.recv):
                    continue  # per-job private instance, does not escape
                for t in call.targets + call.lambdas:
                    work.append((t, reason))
        self._escaped_cache = shared
        return shared

    # -- the static lock graph --------------------------------------------

    def static_edges(self):
        """{(from_name, to_name): (path, line)} over the whole program."""
        edges = {}

        def add(frm, to, path, line):
            if frm != to:
                edges.setdefault((frm, to), (path, line))

        for fn in self.all_functions:
            for frm, to, pos in fn.summary.intra_edges:
                add(frm, to, fn.path, fn.line_of(pos))
            for call in fn.summary.calls:
                acquired = set()
                for t in call.targets:
                    acquired |= self.acquired_closure(t)
                for lam in call.lambdas:
                    acquired |= self.acquired_closure(lam)
                for h in call.held:
                    for a in acquired:
                        add(h, a, fn.path, fn.line_of(call.pos))
                # Callback binding: a lambda passed to a function that
                # invokes its callback parameter under locks.
                for t in call.targets:
                    for holds in t.summary.callback_holds:
                        for h in holds:
                            for lam in call.lambdas:
                                for a in self.acquired_closure(lam):
                                    add(h, a, fn.path, fn.line_of(call.pos))
        return edges


# ---------------------------------------------------------------------------
# Body helpers.
# ---------------------------------------------------------------------------

def _depths(body):
    d = 0
    out = [0] * len(body)
    for i, c in enumerate(body):
        if c == "{":
            d += 1
        elif c == "}":
            d -= 1
        out[i] = d
    return out


def _block_ends(body):
    """{pos: close_brace_pos_of_enclosing_block} for every position that
    starts an interesting token; computed lazily as a full map of positions
    to the end of the innermost block containing them."""
    stack = [len(body)]
    # Precompute matching close for each open brace.
    match = {}
    opens = []
    for i, c in enumerate(body):
        if c == "{":
            opens.append(i)
        elif c == "}":
            if opens:
                match[opens.pop()] = i
    out = {}
    stack = []
    for i, c in enumerate(body):
        if c == "{":
            stack.append(match.get(i, len(body)))
        elif c == "}":
            if stack:
                stack.pop()
        out[i] = stack[-1] if stack else len(body)
    return out


def _branch_exits(body, pos, block_end):
    """True if the block containing `pos` exits (return/break/continue)
    between `pos` and its close — the early-out unlock idiom."""
    end = block_end.get(pos, len(body))
    return re.search(r"\b(return|break|continue)\b", body[pos:end]) \
        is not None


def _match_paren(body, open_pos):
    """Index of the `)` matching the `(` at open_pos, or None."""
    depth = 0
    for i in range(open_pos, len(body)):
        if body[i] == "(":
            depth += 1
        elif body[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return None


def _call_close(body, pos):
    """Position just past the `)` closing the call whose `.`/`->` starts at
    `pos`, or None."""
    op = body.find("(", pos)
    if op == -1:
        return None
    close = _match_paren(body, op)
    return None if close is None else close + 1


def _notok_returns(body):
    """Positions of `return` statements inside `if (... !....ok() ...)`
    blocks — the explicit-error-propagation idiom the SL_ macros expand
    to."""
    out = []
    for m in re.finditer(r"\bif\s*\(", body):
        close = _match_paren(body, m.end() - 1)
        if close is None:
            continue
        cond = body[m.end():close]
        if ".ok()" not in cond or "!" not in cond:
            continue
        j = close + 1
        while j < len(body) and body[j] in " \t\n":
            j += 1
        if j < len(body) and body[j] == "{":
            end = _close_brace(body, j)
            span_end = end if end is not None else len(body)
        else:
            semi = body.find(";", j)
            span_end = semi if semi != -1 else len(body)
        for rm in re.finditer(r"\breturn\b", body[j:span_end]):
            out.append(j + rm.start())
    return out


def _loop_spans(body):
    """(start, end) span of each for/while statement including its body."""
    spans = []
    for m in _LOOP_HDR.finditer(body):
        close = _match_paren(body, m.end() - 1)
        if close is None:
            continue
        j = close + 1
        while j < len(body) and body[j] in " \t\n":
            j += 1
        if j < len(body) and body[j] == "{":
            end = _close_brace(body, j)
            spans.append((m.start(), (end if end is not None
                                      else len(body)) + 1))
        else:
            semi = body.find(";", j)
            spans.append((m.start(), (semi if semi != -1
                                      else len(body)) + 1))
    return spans


def fallible_ret(fn):
    """True when `fn` returns Status or Result<T> (an error can propagate
    out of it)."""
    return bool(_FALLIBLE_RET.search(getattr(fn, "ret", "") or ""))


def _receiver_expr(body, call_pos):
    """Best-effort receiver expression ending just before `.` / `->` at
    call_pos (walks left over identifiers, subscripts, ->/., parens)."""
    i = call_pos
    while i > 0 and body[i - 1] in " \t\n":
        i -= 1
    end = i
    depth = 0
    while i > 0:
        c = body[i - 1]
        if c in ")]":
            depth += 1
        elif c in "([":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and not (c.isalnum() or c in "_.>-:*"):
            break
        i -= 1
    return body[i:end].strip().rstrip("->.")


def _lambda_args(analysis, fn, call_pos, body):
    """Synthetic FunctionInfo for each lambda literally inside the argument
    list of the call at call_pos (treated as invoked synchronously — used
    for callback binding: ForEachPlog(fn) runs fn under its stripe locks).
    The lambda text also stays inline in the enclosing function's scan,
    which is correct for synchronous invocation; edges dedupe."""
    from .parsing import FunctionInfo  # local import to avoid cycle
    open_paren = body.find("(", call_pos)
    if open_paren == -1:
        return []
    depth = 0
    close = len(body)
    for i in range(open_paren, len(body)):
        if body[i] == "(":
            depth += 1
        elif body[i] == ")":
            depth -= 1
            if depth == 0:
                close = i
                break
    out = []
    for lm in _LAMBDA.finditer(body, open_paren, close):
        key = (fn.qualname, lm.start())
        lam = analysis._lambda_cache.get(key)
        if lam is None:
            open_brace = lm.end() - 1
            lam_close = _close_brace(body, open_brace)
            if lam_close is None:
                continue
            line = fn.line_of(open_brace)
            lam = FunctionInfo(
                f"{fn.qualname}::<lambda@{line}>", fn.cls,
                f"<lambda@{line}>", fn.path, "",
                body[open_brace:lam_close + 1], line,
                [], False, dict(fn.param_types))
            analysis._lambda_cache[key] = lam
            analysis.lambda_funcs.append(lam)
            lam.summary = analysis._summarize(lam)
        out.append(lam)
    return out


def _close_brace(body, open_brace):
    depth = 0
    for i in range(open_brace, len(body)):
        if body[i] == "{":
            depth += 1
        elif body[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return None


def _excise_submit_lambdas(analysis, fn):
    """Cut lambda bodies passed to Submit() or ParallelFor() out of `fn`'s
    body (replaced by spaces, newlines kept) and register them as
    synthetic deferred functions analyzed with an empty entry held-set."""
    from .parsing import FunctionInfo  # local import to avoid cycle
    body = fn.body
    excised = []
    lams = []
    calls = sorted(list(_SUBMIT.finditer(body)) +
                   list(_PARALLEL_FOR.finditer(body)),
                   key=lambda m: m.start())
    for m in calls:
        close_paren = _match_paren(body, m.end() - 1)
        lm = _LAMBDA.search(body, m.end(),
                            close_paren if close_paren is not None
                            else len(body))
        if lm is None:
            continue
        open_brace = lm.end() - 1
        depth = 0
        close = None
        for i in range(open_brace, len(body)):
            if body[i] == "{":
                depth += 1
            elif body[i] == "}":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        if close is None:
            continue
        lam_body = body[open_brace:close + 1]
        line = fn.line_of(open_brace)
        lam = FunctionInfo(
            f"{fn.qualname}::<lambda@{line}>", fn.cls,
            f"<lambda@{line}>", fn.path, "", lam_body, line,
            [], False, dict(fn.param_types))
        lam.deferred = True
        analysis.lambda_funcs.append(lam)
        lams.append(lam)
        excised.append((open_brace, close))
    if not excised:
        return body, []
    chars = list(body)
    for start, end in excised:
        for i in range(start + 1, end):
            if chars[i] != "\n":
                chars[i] = " "
    return "".join(chars), lams
