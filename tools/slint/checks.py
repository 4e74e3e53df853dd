"""The slint checks (S1-S7), DOT emission/parsing, and the suppression file.

Findings carry a (check, key) pair; a suppression line in
tools/slint_suppressions.txt must name exactly that pair plus a
justification (a key ending in `*` suppresses every key with that prefix —
for per-class S5 exemptions). Keys:

  S1  "from->to"            (lock names of the offending static edge)
  S2  "Qual::Name:kind"     (function qualname : blocking-root kind)
  S3  "Qual::Name:field"    (function qualname : guarded field)
  S4  "from->to"            (observed edge absent from the static graph)
  S5  "Class:field"         (unguarded mutable member of a shared class)
  S6  "Qual::Name:torn"     (error return leaves mutations un-undone)
  S7  "Qual::Name:publish"  (fallible call after the visibility flip)
"""

import json
import re

from .analysis import (_DELETE_KIND, _MUTATION_NAMES,
                       fallible_ret)


class Finding:
    def __init__(self, check, key, message, path=None, line=None):
        self.check = check
        self.key = key
        self.message = message
        self.path = path
        self.line = line

    def location(self):
        if self.path is None:
            return ""
        return f"{self.path}:{self.line}: " if self.line else f"{self.path}: "

    def __str__(self):
        return f"{self.location()}[{self.check} {self.key}] {self.message}"


# ---------------------------------------------------------------------------
# Suppressions.
# ---------------------------------------------------------------------------

_SUPP_LINE = re.compile(r"^(S[1-7])\s+(\S+)\s+--\s+(.+)$")


def load_suppressions(text):
    """[(check, key, justification, lineno)] from the suppression file text.
    Raises ValueError on a malformed or unjustified line."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SUPP_LINE.match(line)
        if not m or not m.group(3).strip():
            raise ValueError(
                f"suppressions line {lineno}: expected "
                f"'S<n> <key> -- <justification>', got: {line}")
        out.append((m.group(1), m.group(2), m.group(3).strip(), lineno))
    return out


def _supp_matches(supp_key, finding_key):
    if supp_key.endswith("*"):
        return finding_key.startswith(supp_key[:-1])
    return supp_key == finding_key


def apply_suppressions(findings, supps):
    """(unsuppressed_findings, unused_suppression_findings)."""
    used = set()
    remaining = []
    for f in findings:
        hit = None
        for i, (check, key, _, _) in enumerate(supps):
            if check == f.check and _supp_matches(key, f.key):
                hit = i
                break
        if hit is None:
            remaining.append(f)
        else:
            used.add(hit)
    unused = [
        Finding("SUPP", f"{check}:{key}",
                f"unused suppression (line {lineno}): no {check} finding "
                f"with key {key} — delete it so it cannot mask a future "
                "regression")
        for i, (check, key, _, lineno) in enumerate(supps) if i not in used]
    return remaining, unused


# ---------------------------------------------------------------------------
# S1: static lock graph is rank-descending and acyclic.
# ---------------------------------------------------------------------------

def check_s1(program, analysis, edges):
    findings = []
    for (frm, to), (path, line) in sorted(edges.items()):
        if frm == to:
            # Same-name nesting is the striped ascending idiom; stripe
            # order is a runtime property the static pass cannot see, so
            # it stays with the runtime checker (and R6's token check).
            continue
        fi, ti = program.mutexes.get(frm), program.mutexes.get(to)
        if fi is None or ti is None or fi.rank is None or ti.rank is None:
            continue
        if ti.rank >= fi.rank:
            findings.append(Finding(
                "S1", f"{frm}->{to}",
                f"acquires \"{to}\" (rank {ti.rank}, {ti.rank_token}) while "
                f"\"{frm}\" (rank {fi.rank}, {fi.rank_token}) can be held — "
                "acquisition order must be strictly rank-descending",
                path, line))
    # Acyclicity over the whole edge set (catches cycles even among
    # suppressed rank violations).
    graph = {}
    for frm, to in edges:
        if frm != to:
            graph.setdefault(frm, []).append(to)
    for node in graph.values():
        node.sort()
    color, cycle = {}, []

    def dfs(n, stack):
        color[n] = 1
        stack.append(n)
        for nxt in graph.get(n, []):
            if color.get(nxt, 0) == 1:
                cycle.append(stack[stack.index(nxt):] + [nxt])
                continue
            if color.get(nxt, 0) == 0:
                dfs(nxt, stack)
        stack.pop()
        color[n] = 2

    for n in sorted(graph):
        if color.get(n, 0) == 0:
            dfs(n, [])
    for cyc in cycle:
        findings.append(Finding(
            "S1", "->".join(cyc),
            "static lock graph cycle: " + " -> ".join(
                f'"{n}"' for n in cyc)))
    return findings


# ---------------------------------------------------------------------------
# S2: no blocking call transitively reachable while a lock is held.
# ---------------------------------------------------------------------------

_BLOCK_DESC = {
    "sleep": "a real-time sleep",
    "join": "a thread join",
    "pool-wait": "ThreadPool::Wait (drains the whole queue)",
    "submit": "ThreadPool::Submit (takes the pool lock, can wake workers)",
    "parallel-for": "ParallelFor (submits jobs to a pool and waits for them)",
    "condvar": "a condition wait",
    "device-io": "device I/O (reaches the io_delay_hook fault point)",
}


def _condvar_exempt(kind, detail, held):
    """Waiting on a condvar with only its own mutex held is the one legal
    way to block while holding a lock."""
    return kind == "condvar" and set(held) <= {detail}


def check_s2(analysis):
    findings = []
    seen = set()
    for fn in analysis.all_functions:
        # Direct blocking primitives under a held lock.
        for kind, detail, pos, held in fn.summary.blocking:
            if not held or _condvar_exempt(kind, detail, held):
                continue
            key = f"{fn.qualname}:{kind}"
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                "S2", key,
                f"{fn.qualname} performs {_BLOCK_DESC[kind]} ({detail}) "
                f"while holding {sorted(held)}",
                fn.path, fn.line_of(pos)))
        # Blocking roots reachable through calls made while holding locks.
        for call in fn.summary.calls:
            if not call.held:
                continue
            for target in call.targets + call.lambdas:
                for (kind, detail), chain in sorted(
                        analysis.blocking_closure(target).items()):
                    if _condvar_exempt(kind, detail, call.held):
                        continue
                    key = f"{fn.qualname}:{kind}"
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(Finding(
                        "S2", key,
                        f"{fn.qualname} holds {sorted(call.held)} across a "
                        f"call to {target.qualname}, which reaches "
                        f"{_BLOCK_DESC[kind]} ({detail}); path: "
                        + " -> ".join(chain),
                        fn.path, fn.line_of(call.pos)))
    return findings


# ---------------------------------------------------------------------------
# S3: GUARDED_BY fields only touched with the guard held.
# ---------------------------------------------------------------------------

def check_s3(analysis):
    findings = []
    seen = set()
    for fn in analysis.all_functions:
        for field, guard, pos, held_ok in fn.summary.guarded_uses:
            if held_ok:
                continue
            key = f"{fn.qualname}:{field}"
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                "S3", key,
                f"{fn.qualname} accesses \"{field}\" (GUARDED_BY "
                f"\"{guard}\") without holding the guard — add a guard "
                "scope, a REQUIRES() on the declaration, or AssertHeld()",
                fn.path, fn.line_of(pos)))
    return findings


# ---------------------------------------------------------------------------
# S4: runtime-observed graph ⊆ static graph.
# ---------------------------------------------------------------------------

def check_s4(program, edges, observed_text):
    nodes, obs_edges = parse_dot(observed_text)
    known = set(program.mutexes)
    findings = []
    for frm, to in sorted(obs_edges):
        if frm not in known or to not in known:
            continue  # test-local locks are outside the static universe
        if frm != to and (frm, to) not in edges:
            findings.append(Finding(
                "S4", f"{frm}->{to}",
                f"runtime observed edge \"{frm}\" -> \"{to}\" is absent "
                "from the static lock graph — the analyzer failed to model "
                "a real acquisition path; fix the parser or the model, "
                "do not suppress without a parser issue reference"))
    return findings


# ---------------------------------------------------------------------------
# S5: guard-completeness — every mutable member of a thread-shared class is
# GUARDED_BY-annotated, atomic, or const-after-construction.
# ---------------------------------------------------------------------------

# Member types that ARE the synchronization / execution machinery, not data.
_S5_EXEMPT_TYPES = frozenset((
    "Mutex", "SharedMutex", "CondVar", "ThreadPool", "thread"))

_MUTATOR_METHODS = (
    "push_back|emplace_back|emplace|emplace_front|pop_back|push_front|"
    "pop_front|push|pop|clear|erase|insert|resize|assign|swap|splice|reset")


def _write_sites(field):
    """Regex matching a WRITE of member `field`: assignment, compound
    assignment, inc/dec, or a container-mutator method call."""
    v = re.escape(field)
    return re.compile(
        r"(?:\+\+|--)\s*" + v + r"\b"
        r"|\b" + v + r"\s*(?:\+\+|--)"
        r"|\b" + v + r"\s*(?:\[[^\]]*\]\s*)?(?:[-+*/|&^]|<<|>>)?=(?!=)"
        r"|\b" + v + r"\s*(?:\.|->)\s*(?:" + _MUTATOR_METHODS + r")\s*\(")


def _is_member_write(body, m):
    """False when the matched write goes through a non-this receiver
    (`c.field = ...`, `plog->field = ...`): that is a write to SOME OTHER
    object — a local being built in a factory, a request struct — not to
    this instance's member."""
    pre = re.sub(r"(?:\+\+|--)\s*$", "", body[:m.start()])
    recv = re.search(r"(\w+|\]|\))\s*(?:\.|->)\s*$", pre)
    return recv is None or recv.group(1) == "this"


def check_s5(program, analysis):
    """For each thread-shared class (owns a lock/condvar/atomic, or its
    methods are reachable from a deferred Submit lambda), every mutable
    member must be annotated, atomic, or const-after-construction
    (written only by the constructor)."""
    findings = []
    shared = analysis.escaped_classes()
    methods = {}  # class -> [FunctionInfo] incl. excised lambdas
    for fn in analysis.all_functions:
        if fn.cls:
            methods.setdefault(fn.cls, []).append(fn)
    for cname in sorted(shared):
        ci = program.classes.get(cname)
        if ci is None:
            continue
        reason = shared[cname]
        for field in sorted(ci.members):
            t = ci.members[field]
            if field in ci.annotated or field in ci.const_members:
                continue
            if t in _S5_EXEMPT_TYPES or "atomic" in t:
                continue
            pat = _write_sites(field)
            site = None
            for fn in methods.get(cname, []):
                if fn.name.lstrip("~") == cname:
                    continue  # ctor/dtor run before/after sharing
                if field in fn.param_types:
                    continue  # a parameter shadows the member name
                for m in pat.finditer(fn.body):
                    if _is_member_write(fn.body, m):
                        site = (fn, m.start())
                        break
                if site:
                    break
            if site is None:
                continue  # const-after-construction
            fn, pos = site
            findings.append(Finding(
                "S5", f"{cname}:{field}",
                f"\"{cname}::{field}\" ({t}) is written by {fn.qualname} "
                f"but is neither GUARDED_BY-annotated, atomic, nor "
                f"const-after-construction; the class is thread-shared "
                f"({reason}) — annotate the member or justify-suppress",
                fn.path, fn.line_of(pos)))
    return findings


# ---------------------------------------------------------------------------
# S6: rollback/torn-state — every early error return after an externally
# visible mutation must reach an undo of the mutations made so far.
# ---------------------------------------------------------------------------

def _mutation_kind(name):
    """'delete' for idempotent delete-kind mutations, else 'write'."""
    return "delete" if _DELETE_KIND.match(name) else "write"


_TERMINAL_RETURN = re.compile(r"\breturn\b[^;{}]*$")


def _terminal(body, pos):
    """True if the mutation at `pos` sits inside a `return` statement
    (`return objects_->Write(...)`). Such a mutation ends its path: no
    later code runs after it, so it cannot leave state torn relative to
    a lexically-later error return (which belongs to a different path),
    and its own failure is exactly the status handed to the caller."""
    return _TERMINAL_RETURN.search(body, max(0, pos - 120), pos) is not None


def _mutation_events(analysis, fn):
    """[(eff_pos, pos, desc, chain, in_loop, kind)] durable mutations in
    `fn`, direct and via calls (interprocedural, with witness chains). A
    mutation inside a loop takes the loop start as its effective position:
    a later iteration can fail after an earlier iteration already
    mutated."""
    events = {}
    for desc, pos in analysis.effective_mutations(fn):
        if _terminal(fn.body, pos):
            continue
        name = desc.rsplit("->", 1)[-1]
        events[pos] = (pos, desc, None, _mutation_kind(name))
    for call in fn.summary.calls:
        if call.pos in events or call.discarded or \
                _terminal(fn.body, call.pos):
            continue
        for t in call.targets:
            closure = analysis.mutation_closure(t)
            if closure:
                desc, chain = next(iter(sorted(closure.items())))
                name = call.raw.split("::")[-1]
                events[call.pos] = (call.pos, f"{call.raw}() -> {desc}",
                                    chain, _mutation_kind(name))
                break
    out = []
    for pos, (p, desc, chain, kind) in sorted(events.items()):
        eff = p
        in_loop = False
        for start, end in fn.summary.loops:
            if start <= p < end:
                eff = min(eff, start)
                in_loop = True
        out.append((eff, p, desc, chain, in_loop, kind))
    return out


def _undo_sites(analysis, fn):
    """[(desc, pos)] undo operations in `fn`: the summary's own undo idioms
    (MarkGarbage / discarded deletes) plus two interprocedural forms —

    * a *discarded mutating call* (`ReleaseFragment(f).LogIgnored(...)`):
      explicitly best-effort compensation on an error path;
    * a call to a *pure undo helper*: a callee with no effective mutations
      of its own whose body consists of undo idioms (a rollback routine
      factored out of the commit protocol).
    """
    undos = list(fn.summary.undos)
    for call in fn.summary.calls:
        if not call.targets:
            continue
        if call.discarded:
            if any(analysis.mutation_closure(t) for t in call.targets):
                undos.append((call.raw, call.pos))
            continue
        if not any(analysis.effective_mutations(t) for t in call.targets) \
                and any(t.summary.undos for t in call.targets):
            undos.append((call.raw, call.pos))
    return undos


def check_s6(analysis):
    """Status/Result-returning functions performing >= 2 durable mutations:
    every early error return lexically after mutation k must have an undo
    (MarkGarbage/Rollback/discarded-Delete/erase idioms) between the first
    mutation and the return — otherwise the path leaves torn state."""
    findings = []
    for fn in analysis.all_functions:
        if not fallible_ret(fn):
            continue
        muts = _mutation_events(analysis, fn)
        # A function whose durable mutations are ALL delete-kind is a GC /
        # teardown protocol: a torn run leaves re-drivable garbage, and
        # re-running the delete is the rollback.
        if muts and all(m[5] == "delete" for m in muts):
            continue
        # Loop mutations count double: two iterations are two mutations.
        weight = sum(2 if in_loop else 1 for _, _, _, _, in_loop, _ in muts)
        if weight < 2:
            continue
        undos = _undo_sites(analysis, fn)
        torn = []
        for r in fn.summary.error_returns:
            pre = [m for m in muts if m[0] < r and m[1] != r]
            if not pre:
                continue
            first = min(m[1] for m in pre)
            if any(first <= upos < r or
                   _same_loop(fn.summary.loops, upos, r)
                   for _, upos in undos):
                continue
            torn.append((r, pre))
        if not torn:
            continue
        r, pre = torn[0]
        _, mpos, desc, chain, _, _ = pre[0]
        msg = (f"{fn.qualname} returns an error at line {fn.line_of(r)} "
               f"after {len(pre)} un-undone mutation(s) — first: {desc} "
               f"at line {fn.line_of(mpos)}")
        if chain:
            msg += "; mutation path: " + " -> ".join(chain)
        if len(torn) > 1:
            msg += f" ({len(torn)} torn error paths in total)"
        msg += (". Add rollback (MarkGarbage / best-effort Delete) before "
                "the return, or justify-suppress if partial state is "
                "benign/idempotent")
        findings.append(Finding("S6", f"{fn.qualname}:torn", msg,
                                fn.path, fn.line_of(r)))
    return findings


def _same_loop(loops, a, b):
    """True if positions a and b share a loop body (an undo in the same
    loop as the error return runs on the prior iterations' state)."""
    return any(s <= a < e and s <= b < e for s, e in loops)


# ---------------------------------------------------------------------------
# S7: publish-last — the operation that makes commit state visible to
# readers must be the lexically-last fallible operation.
# ---------------------------------------------------------------------------

def check_s7(analysis):
    findings = []
    for fn in analysis.all_functions:
        pubs = fn.summary.publishes
        if not pubs:
            continue
        muts = _mutation_events(analysis, fn)
        first_pub = min(pos for _, pos in pubs)
        # Only commit protocols: at least one durable mutation precedes
        # the publish (a bare map/catalog write is not a commit sequence).
        if not any(eff < first_pub for eff, _, _, _, _, _ in muts):
            continue
        undo_pos = {upos for _, upos in _undo_sites(analysis, fn)}
        for pdesc, ppos in pubs:
            offender = None
            for call in fn.summary.calls:
                if call.pos <= ppos:
                    continue
                name = call.raw.split("::")[-1]
                fallible = name in _MUTATION_NAMES or any(
                    fallible_ret(t) for t in call.targets)
                if not fallible:
                    continue
                if call.discarded or call.pos in undo_pos:
                    continue  # best-effort cleanup cannot tear the commit
                if offender is None or call.pos < offender[1]:
                    offender = (call.raw, call.pos)
            for desc, mpos in analysis.effective_mutations(fn):
                if mpos > ppos and (offender is None or mpos < offender[1]):
                    offender = (desc, mpos)
            if offender is None:
                continue
            oname, opos = offender
            findings.append(Finding(
                "S7", f"{fn.qualname}:publish",
                f"{fn.qualname} publishes ({pdesc}) at line "
                f"{fn.line_of(ppos)} but then performs fallible operation "
                f"{oname} at line {fn.line_of(opos)} — a failure after the "
                "visibility flip leaves readers seeing a commit whose "
                "protocol then errored; make the publish last, absorb the "
                "failure (.LogIgnored), or justify-suppress",
                fn.path, fn.line_of(opos)))
            break  # one finding per function
    return findings


# ---------------------------------------------------------------------------
# JSON findings export (CI artifact next to lock_graph.dot).
# ---------------------------------------------------------------------------

def findings_json(findings, remaining, unused, supps, stats):
    """Machine-readable report: every finding with its suppression state,
    plus unused-suppression errors and run statistics."""
    remaining_ids = {id(f) for f in remaining}
    supp_just = {}
    for check, key, just, _ in supps:
        supp_just[(check, key)] = just
    items = []
    for f in findings:
        just = None
        if id(f) not in remaining_ids:
            for (check, key), j in supp_just.items():
                if check == f.check and _supp_matches(key, f.key):
                    just = j
                    break
        items.append({
            "check": f.check, "key": f.key, "message": f.message,
            "path": f.path, "line": f.line,
            "suppressed": id(f) not in remaining_ids,
            "justification": just,
        })
    return json.dumps({
        "stats": stats,
        "findings": items,
        "unused_suppressions": [
            {"key": u.key, "message": u.message} for u in unused],
    }, indent=2) + "\n"


# ---------------------------------------------------------------------------
# DOT emission / parsing (shared grammar with LockOrderGraph::WriteDot).
# ---------------------------------------------------------------------------

_DOT_NODE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*(?:\[[^\]]*\])?\s*;')
_DOT_EDGE = re.compile(
    r'^\s*"((?:[^"\\]|\\.)*)"\s*->\s*"((?:[^"\\]|\\.)*)"\s*(?:\[[^\]]*\])?'
    r'\s*;')


def write_dot(program, edges):
    """The static lock graph in the trivially-parseable DOT dialect that
    LockOrderGraph::WriteDot also emits. Every mutex in the DB appears as a
    node (even if isolated) so subset checks know the full universe."""
    lines = ["digraph lock_order {"]
    for name in sorted(program.mutexes):
        info = program.mutexes[name]
        rank = info.rank if info.rank is not None else -1
        striped = " striped=1" if info.striped else ""
        lines.append(f'  "{name}" [lockrank={rank}{striped}];')
    for frm, to in sorted(edges):
        lines.append(f'  "{frm}" -> "{to}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_dot(text):
    """(node_names, edge_set) from our DOT dialect (one item per line)."""
    nodes, edges = set(), set()
    for line in text.splitlines():
        em = _DOT_EDGE.match(line)
        if em:
            edges.add((em.group(1), em.group(2)))
            nodes.add(em.group(1))
            nodes.add(em.group(2))
            continue
        nm = _DOT_NODE.match(line)
        if nm:
            nodes.add(nm.group(1))
    return nodes, edges


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def run_checks(program, analysis, observed_text=None):
    """All findings, most fundamental first. `observed_text` is the runtime
    DOT dump for S4 (skipped when None)."""
    edges = analysis.static_edges()
    findings = check_s1(program, analysis, edges)
    findings += check_s2(analysis)
    findings += check_s3(analysis)
    if observed_text is not None:
        findings += check_s4(program, edges, observed_text)
    findings += check_s5(program, analysis)
    findings += check_s6(analysis)
    findings += check_s7(analysis)
    return findings, edges
