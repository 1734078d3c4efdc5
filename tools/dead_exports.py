#!/usr/bin/env python3
"""Fail when a library exports a value, an optional argument or a
config field that nothing uses.

Usage, from the repository root:

    python3 tools/dead_exports.py

Three checks over the `.ml` sources under lib, bin, bench, snapbench
and examples, after comments and string literals are stripped.  Tests
are not callers: an export only a test uses is surface the program
does not need.

- Every `val` declared in a `lib/**/*.mli` is named by some `.ml`
  other than its own module's implementation: qualified by its module,
  through any `module M = ...` alias, or bare in a file that opens the
  module.  A value only its own module uses belongs out of the
  interface; a value nothing uses belongs out of the code.
- Every optional argument `?x` of such a `val` is passed, as `~x` or
  `?x`, by at least one call site.  A call site is a use of the value
  as above, or a bare use in its own module, anywhere but its own
  definition, scanned to the end of its application.  An option no
  caller passes always takes its default, so it is a constant.
- Every field of a `type config` record declared in a `lib/**/*.mli`
  is set by some code outside its own module, in a `{ e with ... }`
  update or a record literal.  A field no one sets always holds its
  default, so it is a constant too.

A use credits only the `val` of its innermost module: `M.A.f` names
`M.A.f`, not `M.B.f` or a top-level `M.f`.  The lint does no scope
analysis, so a bare use inside a module's own file still credits every
same-named `val` that file declares.

A finding stays only as an entry in ALLOWED below, keyed by the name
code uses for it (`Lib.Module.value`, `Lib.Module.value ?arg`,
`Lib.Module.config.field`) with a one-line reason: a test hook that
reaches a path no default reaches, a test's reference, or a value whose
caller the ROADMAP schedules.  An entry with an empty reason, or one
the checks no longer flag, is itself an offence, so the list cannot
outlive the hooks it names.

Exits 1 and lists the offenders, 0 when there are none.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ["lib", "bin", "bench", "snapbench", "examples"]

# Findings that stay, each with the reason a test still needs it.
BUSY_REGIME = ("test_overload's busy-nack regime needs it to reach Busy "
               "NACKs and deadline expiry, which the default config does "
               "not")
ALLOWED = {
    "Check.Explore.sweep ?salts":
        "test_check picks two salts to prove a salt divergence is caught",
    "Check.Invariant.check_now":
        "test_check evaluates the registered invariants between ticks",
    "Fabric.config.egress_buffer_bytes":
        "fabric tests shrink the egress buffer to reach drop-tail overflow",
    "Pony.Express.flow_versions":
        "the mixed-release test reads the version two hosts negotiated",
    "Pony.Express.one_sided_write":
        "ROADMAP item 8 gives it a caller in the oracle's op mix",
    "Snap.Host.create ?wire_versions":
        "the mixed-release test builds hosts on different releases",
    "Stats.Histogram.index_of":
        "the reference test_stats checks the bucketing's error bound with",
    "Stats.Histogram.value_of":
        "the reference test_stats checks the bucketing's error bound with",
    "Upgrade.blackout_of":
        "the state-size model tests check measured blackouts against",
    "Upgrade.config.blackout_slo":
        "the give-up test sets a blackout SLO no attempt can meet",
    "Upgrade.config.max_attempts":
        "the give-up test stops after 2 attempts rather than 3",
    "Upgrade.config.retry_backoff":
        "the rollback tests retry after 1 ms rather than 5",
    "Upgrade.default_config":
        "the rollback and give-up tests build their configs from it",
    "Upgrade.upgrade ?config":
        "the rollback and give-up tests pass their configs through it",
    "Workloads.Overload.config.aggressor_bytes": BUSY_REGIME,
    "Workloads.Overload.config.aggressor_deadline": BUSY_REGIME,
    "Workloads.Overload.config.aggressor_pool_bytes": BUSY_REGIME,
    "Workloads.Overload.config.aggressor_quota_bytes": BUSY_REGIME,
    "Workloads.Overload.config.aggressor_quota_ops": BUSY_REGIME,
    "Workloads.Overload.config.server_service_time": BUSY_REGIME,
}

TOKEN = re.compile(
    r"""\(\*|\*\)|"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\[^']+)'"""
    r"""|[~?][a-z_][A-Za-z0-9_']*:?"""
    r"""|[A-Za-z_][A-Za-z0-9_']*(?:\.[A-Za-z_][A-Za-z0-9_']*)*"""
    r"""|[0-9][0-9A-Za-z_.]*"""
    r"""|\[\||\|\]|;;|[()\[\]{};,]"""
    r"""|[-+*/<>=@^|&$%!:.#~?]+""",
    re.S,
)
IDENT = re.compile(r"[A-Za-z_]")
OPENERS = {"(": ")", "[": "]", "{": "}", "[|": "|]", "begin": "end",
           "sig": "end", "struct": "end", "object": "end"}
CLOSERS = {")", "]", "}", "|]", "end"}
# Tokens that end an application at its own nesting depth.
ENDS = {"in", ";", ";;", ",", "|", "then", "else", "with", "do", "done",
        "to", "downto", "and", "let", "->", "of", "when", "val", "type",
        "module", "open", "if", "match", "function", "external"}
# Operator tokens that continue an argument rather than end the
# application: prefix dereference and negation.
PREFIX_OPS = {"!", "-", "-."}
# Keywords that start a top-level signature item.
SIG_ITEMS = {"val", "type", "module", "exception", "include", "external",
             "class", "end", "open"}


def tokens(text):
    """The tokens of an OCaml source outside comments and strings."""
    out = []
    depth = 0
    for m in TOKEN.finditer(text):
        tok = m.group(0)
        if tok == "(*":
            depth += 1
        elif tok == "*)":
            depth = max(0, depth - 1)
        elif depth == 0 and tok[0] not in "\"'":
            out.append(tok)
    return out


def is_ident(tok):
    return IDENT.match(tok) is not None


def last(tok):
    return tok.rsplit(".", 1)[-1]


def qualifier(tok):
    """The module component just before the last one, or None."""
    parts = tok.split(".")
    return parts[-2] if len(parts) > 1 else None


def sources(root):
    for top in CALLER_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if d != "_build"]
            for f in filenames:
                if f.endswith(".ml") or f.endswith(".mli"):
                    yield os.path.relpath(os.path.join(dirpath, f), root)


def module_of(path):
    return os.path.basename(path).split(".")[0].capitalize()


# -- interfaces ----------------------------------------------------------


def signature(toks, i):
    """The tokens of the `val` whose name is at [i], up to the next
    signature item."""
    j = i + 1
    depth = 0
    while j < len(toks):
        t = toks[j]
        if t in ("(", "[", "{", "[|"):
            depth += 1
        elif t in (")", "]", "}", "|]"):
            depth -= 1
        elif depth == 0 and t in SIG_ITEMS:
            break
        j += 1
    return toks[i + 1:j]


def library(path):
    """The name code uses for the library holding [path]."""
    with open(os.path.join(ROOT, os.path.dirname(path), "dune"),
              encoding="utf-8") as fh:
        return re.search(r"\(name ([a-z_]+)\)", fh.read()).group(1)


def qualified(path, inner=()):
    """The name code uses for the module of [path], or for a module
    nested in it along [inner]."""
    lib = library(path).capitalize()
    mod = module_of(path)
    return ".".join(([lib] if lib == mod else [lib, mod]) + list(inner))


def vals(path, toks):
    """(name, innermost module, optional argument names, qualified
    module) of each `val`."""
    out = []
    stack = [module_of(path)]
    pending = None
    for i, t in enumerate(toks):
        if t == "module" and i + 1 < len(toks):
            pending = toks[i + 1]
        elif t == "sig" and pending is not None:
            stack.append(pending)
            pending = None
        elif t == "end" and len(stack) > 1:
            stack.pop()
        elif t == "val" and i + 1 < len(toks):
            sig = signature(toks, i + 1)
            depth = 0
            opts = []
            for s in sig:
                if s in ("(", "[", "{"):
                    depth += 1
                elif s in (")", "]", "}"):
                    depth -= 1
                elif depth == 0 and s.startswith("?") and s.endswith(":"):
                    opts.append(s[1:-1])
            out.append((toks[i + 1], stack[-1], opts,
                        qualified(path, stack[1:])))
    return out


def configs(path, toks):
    """Field names of a top-level `type config = { ... }`."""
    for i in range(len(toks) - 3):
        if toks[i:i + 4] == ["type", "config", "=", "{"]:
            fields = []
            j = i + 4
            depth = 0
            while j < len(toks) and not (depth == 0 and toks[j] == "}"):
                t = toks[j]
                if t in ("(", "[", "{"):
                    depth += 1
                elif t in (")", "]", "}"):
                    depth -= 1
                elif (depth == 0 and is_ident(t) and t != "mutable"
                      and j + 1 < len(toks) and toks[j + 1] == ":"
                      and toks[j - 1] in ("{", ";", "mutable")):
                    fields.append(t)
                j += 1
            return fields
    return None


# -- implementations -----------------------------------------------------


def aliases(toks):
    """Module name visible in a file -> the module it names."""
    out = {}
    for i in range(len(toks) - 3):
        if toks[i] == "module" and toks[i + 2] == "=" and is_ident(toks[i + 3]):
            if toks[i + 3] not in ("struct", "functor"):
                out[toks[i + 1]] = last(toks[i + 3])
    return out


def opened(toks):
    return {last(toks[i + 1]) for i in range(len(toks) - 1)
            if toks[i] == "open"}


def resolve(mod, alias):
    seen = set()
    while mod in alias and mod not in seen:
        seen.add(mod)
        mod = alias[mod]
    return mod


def application_labels(toks, i):
    """Labels passed at depth 0 of the application headed at [i]."""
    labels = set()
    depth = 0
    j = i + 1
    while j < len(toks):
        t = toks[j]
        if t in OPENERS:
            depth += 1
        elif t in CLOSERS:
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            if t[0] in "~?" and len(t) > 1 and is_ident(t[1:]):
                labels.add(t[1:].rstrip(":"))
            elif t in ENDS:
                break
            elif not is_ident(t) and not t[0].isdigit() and t not in PREFIX_OPS:
                break
        j += 1
    return labels


def record_setters(path, toks, alias, field_owner):
    """(module, field) pairs set by record updates and literals."""
    out = set()
    for i, t in enumerate(toks):
        # Skip the inline record of a constructor, [Dedicating { ... }].
        if t != "{" or (i > 0 and last(toks[i - 1])[:1].isupper()):
            continue
        # Find the matching brace and a top-level `with`.
        depth = 0
        j = i + 1
        with_at = None
        while j < len(toks):
            u = toks[j]
            if u in OPENERS:
                depth += 1
            elif u in CLOSERS:
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and u == "with" and with_at is None:
                with_at = j
            j += 1
        close = j
        start = with_at + 1 if with_at is not None else i + 1
        labels = []
        expect_label = True
        depth = 0
        for k in range(start, close):
            u = toks[k]
            if u in OPENERS:
                depth += 1
            elif u in CLOSERS:
                depth -= 1
            elif depth == 0 and u == ";":
                expect_label = True
                continue
            if expect_label and depth == 0:
                expect_label = False
                nxt = toks[k + 1] if k + 1 < close else "}"
                if is_ident(u) and (nxt in ("=", ";", "}") or k + 1 == close):
                    labels.append(u)
                elif with_at is None:
                    labels = []
                    break
        if not labels:
            continue
        mod = None
        for lab in labels:
            if qualifier(lab):
                mod = resolve(qualifier(lab), alias)
        if mod is None and with_at is None:
            # An unqualified literal builds a type of its own module.
            mod = module_of(path)
        if mod is None and with_at == i + 2:
            base = toks[i + 1]
            if qualifier(base):
                mod = resolve(qualifier(base), alias)
            else:
                mod = binding_module(toks, i, base, alias)
        names = {last(lab) for lab in labels}
        if mod is not None:
            out |= {(mod, n) for n in names}
        else:
            # Unresolved: credit every config type that has all the
            # fields, so an ambiguous update never reads as dead.
            for owner, fields in field_owner.items():
                if names <= fields:
                    out |= {(owner, n) for n in names}
    return out


def binding_module(toks, i, var, alias):
    """The module of the record bound to [var] before position [i]:
    from `(var : M.config)` or `let var = { M.x ...`."""
    for k in range(i - 1, 1, -1):
        if toks[k] != var:
            continue
        if toks[k + 1] == ":" and qualifier(toks[k + 2]):
            return resolve(qualifier(toks[k + 2]), alias)
        if toks[k - 1] == "let" and toks[k + 1] == "=" and toks[k + 2] == "{":
            for u in toks[k + 3:k + 6]:
                if qualifier(u):
                    return resolve(qualifier(u), alias)
            return None
    return None


def main():
    exports = []
    config_fields = {}
    impls = {}
    for path in sorted(sources(ROOT)):
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            toks = tokens(fh.read())
        if path.endswith(".mli"):
            if path.startswith("lib/"):
                exports += [(path, v) for v in vals(path, toks)]
                fields = configs(path, toks)
                if fields is not None:
                    config_fields[path] = fields
            continue
        impls[path] = toks

    # Every use of an exported value, with the labels of its application.
    wanted = {}
    for mli, (name, inner, opts, _) in exports:
        wanted.setdefault(name, []).append((mli, inner, opts))
    used = set()
    passed = {}
    field_owner = {module_of(p): set(f) for p, f in config_fields.items()}
    setters = {}
    for path, toks in impls.items():
        alias = aliases(toks)
        opens = {resolve(m, alias) for m in opened(toks)}
        for i, tok in enumerate(toks):
            if not is_ident(tok) or last(tok) not in wanted:
                continue
            if i > 0 and toks[i - 1] in ("let", "rec", "and", "val", "external"):
                continue
            q = qualifier(tok)
            mod = resolve(q, alias) if q else None
            labels = None
            for mli, inner, opts in wanted[last(tok)]:
                own = path == mli[:-1]
                named = mod == inner or (mod is None and inner in opens)
                key = (mli, inner, last(tok))
                if named and not own:
                    used.add(key)
                if opts and (named or (mod is None and own)):
                    if labels is None:
                        labels = application_labels(toks, i)
                    passed.setdefault(key, set()).update(labels)
        for mod, field in record_setters(path, toks, alias, field_owner):
            setters.setdefault(mod, {}).setdefault(field, set()).add(path)

    # (allowlist key, message) of every finding.
    dead = []
    for mli, (name, inner, opts, qual) in exports:
        if (mli, inner, name) not in used:
            dead.append((f"{qual}.{name}",
                         f"{mli}: val {name} is named by no other module"))
        got = passed.get((mli, inner, name), set())
        for o in opts:
            if o not in got:
                dead.append((f"{qual}.{name} ?{o}",
                             f"{mli}: val {name}: no caller passes ?{o}"))

    for mli, fields in config_fields.items():
        by = setters.get(module_of(mli), {})
        for f in fields:
            outside = by.get(f, set()) - {mli[:-1]}
            if not outside:
                dead.append((f"{qualified(mli)}.config.{f}",
                             f"{mli}: config field {f} is set by no other "
                             "module"))

    flagged = {key for key, _ in dead}
    bad = [f"{line} [{key}]" for key, line in dead if key not in ALLOWED]
    bad += [f"allowlist: {key} has no reason"
            for key, why in ALLOWED.items() if not why.strip()]
    bad += [f"allowlist: {key} is not flagged; delete the entry"
            for key in ALLOWED if key not in flagged]

    for line in bad:
        print(line)
    if bad:
        print(
            f"{len(bad)} offence(s): delete a value only tests call or drop "
            "it from the .mli; make an option no caller passes, or a config "
            "field no one sets, a constant; or give a test hook an ALLOWED "
            "entry with its reason."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
