#!/usr/bin/env python3
"""Module layering checker for src/.

Extracts the project-include graph of src/ and enforces the declared module
DAG below. Every `#include "module/..."` edge must be one the target module
declared (ALLOWED_DEPS); anything else is an upward or sideways include that
would re-tangle the layering, and any cycle — even between modules that both
declare each other — is rejected structurally because the declared graph
itself is verified acyclic first.

The declared contract (edges point at allowed dependencies):

    common                      (bottom: no project deps)
    obs        -> common        (cross-cutting telemetry)
    fault      -> common, obs   (cross-cutting fault injection)
    storage    -> common, fault, obs
    sql        -> common, storage
    plan       -> common, sql, storage
    verify     -> common, plan, storage
    exec       -> common, fault, obs, plan, storage, verify
    optimizer  -> common, obs, plan, storage, verify
    extensions -> exec, optimizer, ...
    sharing    -> exec, optimizer, ...
    core       -> exec, optimizer, sharing, ...
    cluster    -> core, ...
    workload   -> cluster, core, ... (top)

Some headers are narrower than their module (RESTRICTED_HEADERS): only the
listed modules may include them, whatever else may include their module.
Operators run serially, so the thread pool is reachable only from common,
obs (its telemetry hooks) and core (sharing windows run their jobs on it).

Run: python3 tools/layering_lint.py [--root DIR]
Exit status 1 when any violation is found.
"""

import argparse
import os
import re
import sys

# The declared module DAG: module -> modules it may include. A module may
# always include itself. Order within the sets is irrelevant; acyclicity of
# the whole declaration is what matters (verified before any file is read).
ALLOWED_DEPS = {
    "common": set(),
    "obs": {"common"},
    "fault": {"common", "obs"},
    "storage": {"common", "fault", "obs"},
    "sql": {"common", "storage"},
    "plan": {"common", "sql", "storage"},
    "verify": {"common", "plan", "storage"},
    "exec": {"common", "fault", "obs", "plan", "storage", "verify"},
    "optimizer": {"common", "obs", "plan", "storage", "verify"},
    "extensions": {"common", "exec", "optimizer", "plan", "storage"},
    "sharing": {"common", "exec", "fault", "obs", "optimizer", "plan",
                "verify"},
    "core": {"common", "exec", "fault", "obs", "optimizer", "plan", "sharing",
             "storage", "verify"},
    "cluster": {"common", "core", "fault", "obs", "plan"},
    "workload": {"cluster", "common", "core", "obs", "plan", "storage"},
}

# Header -> the modules that may include it.
RESTRICTED_HEADERS = {
    "common/thread_pool.h": {"common", "core", "obs"},
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_declared_dag_acyclic():
    """Verifies ALLOWED_DEPS itself is a DAG; returns a cycle or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {m: WHITE for m in ALLOWED_DEPS}
    stack = []

    def visit(mod):
        color[mod] = GRAY
        stack.append(mod)
        for dep in sorted(ALLOWED_DEPS.get(mod, ())):
            if dep not in ALLOWED_DEPS:
                continue
            if color[dep] == GRAY:
                return stack[stack.index(dep):] + [dep]
            if color[dep] == WHITE:
                cycle = visit(dep)
                if cycle:
                    return cycle
        stack.pop()
        color[mod] = BLACK
        return None

    for mod in sorted(ALLOWED_DEPS):
        if color[mod] == WHITE:
            cycle = visit(mod)
            if cycle:
                return cycle
    return None


def collect_violations(src_root):
    violations = []

    cycle = check_declared_dag_acyclic()
    if cycle:
        violations.append((src_root, 0, "declared-dag",
                           "ALLOWED_DEPS contains a cycle: " +
                           " -> ".join(cycle)))
        return violations

    if not os.path.isdir(src_root):
        violations.append((src_root, 0, "layering",
                           "source root does not exist"))
        return violations

    for root, dirs, files in os.walk(src_root):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, src_root)
            parts = rel.split(os.sep)
            if len(parts) < 2:
                # Files directly under src/ belong to no module; none exist
                # today, and adding one should be a conscious decision.
                violations.append((path, 0, "layering",
                                   "file is outside every declared module"))
                continue
            module = parts[0]
            if module not in ALLOWED_DEPS:
                violations.append((path, 0, "layering",
                                   f"module '{module}' is not declared in "
                                   "ALLOWED_DEPS (tools/layering_lint.py)"))
                continue
            allowed = ALLOWED_DEPS[module]
            with open(path, encoding="utf-8") as f:
                for line_no, line in enumerate(f, start=1):
                    m = INCLUDE_RE.match(line)
                    if not m:
                        continue
                    target = m.group(1)
                    dep = target.split("/")[0]
                    if "/" not in target or dep not in ALLOWED_DEPS:
                        # Non-module-shaped project include (e.g. a vendored
                        # header). None exist today; flag so the graph stays
                        # complete.
                        violations.append(
                            (path, line_no, "layering",
                             f'include "{target}" is not under a declared '
                             "module"))
                        continue
                    restricted = RESTRICTED_HEADERS.get(target)
                    if restricted is not None and module not in restricted:
                        violations.append(
                            (path, line_no, "layering",
                             f'module \'{module}\' must not include '
                             f'"{target}": only '
                             f"{', '.join(sorted(restricted))} may"))
                        continue
                    if dep == module or dep in allowed:
                        continue
                    violations.append(
                        (path, line_no, "layering",
                         f"module '{module}' must not include '{dep}' "
                         f'("{target}"): not in its declared dependencies '
                         f"({', '.join(sorted(allowed)) or 'none'})"))
    return violations


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default="src",
                        help="source root to scan (default: src)")
    args = parser.parse_args()

    violations = collect_violations(args.root)
    for path, line_no, rule, message in violations:
        sys.stderr.write(f"{path}:{line_no}: [{rule}] {message}\n")
    if violations:
        sys.stderr.write(f"layering_lint: {len(violations)} violation(s)\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
