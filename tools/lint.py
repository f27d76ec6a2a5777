#!/usr/bin/env python3
"""Project-idiom lint for the CloudViews codebase.

Checks, over src/, tests/, bench/, examples/, and tools/:

  stderr     no raw fprintf(stderr, ...) / std::cerr outside src/obs — all
             diagnostics go through the structured logger (obs/log.h)
  new        no raw owning new/delete outside arenas; intentional leaks
             (singletons) carry a `lint:allow-new` comment on the line above
  rng        no unseeded randomness (rand/srand/random_device, or a
             default-constructed std engine) — determinism is a core
             engine invariant (signatures must be stable run to run)
  guard      header include guards spell the file path
             (src/plan/expr.h -> CLOUDVIEWS_PLAN_EXPR_H_)
  self-first a .cc file's first #include is its own header, so every
             header proves it is self-contained
  includes   no duplicate #includes; project-include blocks sorted
  fault-site every fault::Inject(...) call in src/ names a constant from
             src/fault/fault_sites.h (never a string literal), each
             constant is injected at exactly one call site, every constant
             appears in kAllSites, and no registered site is dead
  metric-name every counter()/gauge()/histogram() lookup in src/ names a
             constant from src/obs/metric_names.h (never a raw string
             literal), constant values are unique, and no registered
             metric name is dead
  row-value  no per-row Value materialization (Value construction,
             GetValue, AppendValue) inside the vectorized kernel files
             (src/exec/batch_*.{h,cc}) — kernels operate on typed column
             storage (AppendCellFrom is the sanctioned typed cell bridge);
             the row-at-a-time reference engine (physical_op.cc) is the
             sanctioned home for row Values, and a deliberate boundary
             crossing carries lint:allow-row-value
  determinism no std::chrono::system_clock and no std::this_thread::
             sleep_for in src/ — engine behaviour must not depend on wall
             time (signatures, telemetry, and tests replay deterministically;
             steady-clock reads live behind Tracer::NowMicros, and waiting
             goes through CondVar, never a timed busy-sleep)
  compensation inside src/optimizer/ only compensation.cc may construct a
             LogicalOp::ViewScan — every matched view (exact or subsumed)
             splices through BuildCompensation so residual filters,
             re-aggregation, and observed-statistics wiring happen in one
             audited place
  plan-immutable compiled plans share sealed nodes (path-copy rewrites), so
             outside the node-construction code in src/plan/ nothing
             casts a LogicalOp's constness away (const_cast<LogicalOp...>)
             or writes into a node's children (assigning `children` or a
             child slot, mutating the vector, or binding a child slot by
             mutable LogicalOpPtr& in a range-for); rewrites build new
             parents with LogicalOp::WithChildren / RewritePaths instead.
             src/sql/ is exempt: its `children` are AST expressions
  row-adapter a Table is typed columns only; its by-value row adapter
             (.row(i), .rows()) builds Values on every call and exists for
             the row-at-a-time reference engine. In src/ only that engine
             (src/exec/physical_op.cc) and src/storage/table.* may call it;
             everything else reads the columns (hash a column at a time,
             gather, slice)
  decision-reason the reuse-decision reason registry is closed: no string
             literal in src/ outside src/obs/decision_reasons.h may spell a
             decision-reason name (EXACT_HIT, STAGE2_NOT_CONTAINED, ...) —
             every surface goes through DecisionReasonName() so the
             miss-attribution vocabulary cannot drift; the header's values
             must be unique and agree with kAllDecisionReasons

`--root DIR` lints an alternate tree laid out like the repo (DIR/src/...)
instead of the repo itself — analyzer_test.py uses this to drive the
compensation, plan-immutable, row-adapter and decision-reason fixtures; in
that mode success is silent.

It also runs the dedicated analyzers as sub-checks, so `python3
tools/lint.py` is the one-stop local gate:

  tools/atomics_lint.py    atomics-discipline protocol comments
  tools/layering_lint.py   module layering / include DAG

Files under tools/analyzer_fixtures/ are deliberate negative test inputs
for those analyzers and are excluded from every check here.

Exit status 0 = clean; 1 = violations (printed one per line as
path:line: [rule] message).
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCAN_DIRS = ["src", "tests", "bench", "examples", "tools"]
ALLOW_NEW = "lint:allow-new"
ALLOW_ROW_VALUE = "lint:allow-row-value"

violations = []


def report(path, line_no, rule, message):
    shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
    violations.append(f"{shown}:{line_no}: [{rule}] {message}")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so token rules don't fire on prose or log text."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in ('"', "'"):
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def check_stderr(path, raw_lines, code_lines):
    if path.is_relative_to(REPO / "src" / "obs"):
        return  # the logger's own sink writes to stderr by design
    if path.is_relative_to(REPO / "tools"):
        return  # CLI binaries report usage errors on stderr by design
    for no, line in enumerate(code_lines, 1):
        if re.search(r"\bfprintf\s*\(\s*stderr\b", line):
            report(path, no, "stderr",
                   "raw fprintf(stderr, ...); use obs::LogError instead")
        if "std::cerr" in line:
            report(path, no, "stderr",
                   "std::cerr; use obs::LogError instead")


def check_new_delete(path, raw_lines, code_lines):
    for no, line in enumerate(code_lines, 1):
        allowed = ALLOW_NEW in raw_lines[no - 1] or (
            no >= 2 and ALLOW_NEW in raw_lines[no - 2])
        if re.search(r"\bnew\b(?!\s*\()", line) or re.search(
                r"\bnew\s+\(", line):
            if not allowed:
                report(path, no, "new",
                       "raw owning new; use make_unique/make_shared, or "
                       "annotate an intentional leak with " + ALLOW_NEW)
        if re.search(r"\bdelete\b(?!\s*;)", line):
            # `= delete;` declarations are idiomatic and fine.
            if re.search(r"=\s*delete\b", line):
                continue
            if not allowed:
                report(path, no, "new", "raw delete; owning pointers only")


def check_rng(path, raw_lines, code_lines):
    for no, line in enumerate(code_lines, 1):
        if "std::random_device" in line:
            report(path, no, "rng",
                   "std::random_device is nondeterministic; derive seeds "
                   "from job ids / signatures")
        if re.search(r"(?<![\w:])s?rand\s*\(", line):
            report(path, no, "rng", "rand()/srand(); use a seeded engine")
        if re.search(r"std::(mt19937(_64)?|minstd_rand0?|default_random_engine)"
                     r"\s+\w+\s*(;|\{\s*\}|\(\s*\))", line):
            report(path, no, "rng",
                   "default-constructed RNG engine; pass an explicit seed")


def expected_guard(path):
    rel = path.relative_to(REPO / "src") if path.is_relative_to(
        REPO / "src") else path.relative_to(REPO)
    token = re.sub(r"[^A-Za-z0-9]", "_", str(rel)).upper()
    return f"CLOUDVIEWS_{token}_"


def check_guard(path, raw_lines):
    guard = expected_guard(path)
    head = "".join(raw_lines[:8])
    if f"#ifndef {guard}" not in head or f"#define {guard}" not in head:
        report(path, 1, "guard", f"include guard must be {guard}")


def check_self_include_first(path, raw_lines):
    header = path.with_suffix(".h")
    if not header.exists():
        return
    rel = header.relative_to(REPO / "src") if header.is_relative_to(
        REPO / "src") else header.name
    first = next(
        (l.strip() for l in raw_lines if l.strip().startswith("#include")),
        None)
    if first != f'#include "{rel}"':
        report(path, 1, "self-first",
               f'first #include must be "{rel}" (self-containedness proof)')


def check_include_blocks(path, raw_lines):
    seen = {}
    block = []  # (line_no, include_text) for the current "..." block
    for no, line in enumerate(raw_lines, 1):
        m = re.match(r'\s*#include\s+(["<][^">]+[">])', line)
        if m:
            inc = m.group(1)
            if inc in seen:
                report(path, no, "includes",
                       f"duplicate #include {inc} (first at line {seen[inc]})")
            else:
                seen[inc] = no
            if inc.startswith('"'):
                block.append((no, inc))
                continue
        if line.strip() == "" or m:
            # blank lines separate blocks; system includes end a "..." block
            if block and (line.strip() == "" or not m):
                incs = [i for _, i in block]
                if incs != sorted(incs):
                    report(path, block[0][0], "includes",
                           "project include block is not sorted")
                block = []
            continue
        if block:
            incs = [i for _, i in block]
            if incs != sorted(incs):
                report(path, block[0][0], "includes",
                       "project include block is not sorted")
            block = []
    if block:
        incs = [i for _, i in block]
        if incs != sorted(incs):
            report(path, block[0][0], "includes",
                   "project include block is not sorted")


def check_row_value(path, raw_lines, code_lines):
    """Vectorized kernels must not materialize rows: no Value construction
    and no per-cell Value bridges. The row-at-a-time reference engine
    (src/exec/physical_op.cc) is exempt — that path exists to produce the
    ground truth the kernels are diffed against."""
    if not path.is_relative_to(REPO / "src" / "exec"):
        return
    if not path.name.startswith("batch_"):
        return
    patterns = [
        (r"(?<![\w:])Value\s*[({]", "Value construction"),
        (r"\bGetValue\s*\(", "GetValue()"),
        (r"\bAppendValue\s*\(", "AppendValue()"),
    ]
    for no, line in enumerate(code_lines, 1):
        allowed = ALLOW_ROW_VALUE in raw_lines[no - 1] or (
            no >= 2 and ALLOW_ROW_VALUE in raw_lines[no - 2])
        if allowed:
            continue
        for pattern, what in patterns:
            if re.search(pattern, line):
                report(path, no, "row-value",
                       f"per-row {what} in a vectorized kernel; stay on "
                       "typed column storage (or annotate a deliberate "
                       "boundary with " + ALLOW_ROW_VALUE + ")")


def check_determinism(path, raw_lines, code_lines):
    """src/ is wall-clock-free: std::chrono::system_clock would make
    signatures, logs, and telemetry differ run to run, and sleep_for is a
    timing-dependent wait that a CondVar should express instead. Tests,
    benches, and tools may use either."""
    if not path.is_relative_to(REPO / "src"):
        return
    patterns = [
        (r"\bstd\s*::\s*chrono\s*::\s*system_clock\b",
         "std::chrono::system_clock (wall clock); use the steady-clock "
         "reads behind Tracer::NowMicros()"),
        (r"\bstd\s*::\s*this_thread\s*::\s*sleep_for\b",
         "std::this_thread::sleep_for (timing-dependent wait); block on a "
         "CondVar instead"),
    ]
    for no, line in enumerate(code_lines, 1):
        for pattern, what in patterns:
            if re.search(pattern, line):
                report(path, no, "determinism", f"{what}")


def check_fault_sites():
    """Cross-file rule: the fault-injection site registry is closed.

    Tests and benches may Inject any registered constant freely (that is the
    point of the framework); the one-call-site rule applies to src/ only,
    where a duplicated site name would merge two unrelated failure points
    into one counter.
    """
    header = REPO / "src" / "fault" / "fault_sites.h"
    if not header.exists():
        return
    text = header.read_text()
    consts = dict(
        re.findall(r'inline constexpr char (k\w+)\[\]\s*=\s*"([^"]+)"', text))
    listed_match = re.search(r"kAllSites\[\]\s*=\s*\{(.*?)\};", text, re.S)
    listed = set(re.findall(r"sites::(k\w+)", listed_match.group(1))
                 ) if listed_match else set()
    for name in consts:
        if name not in listed:
            report(header, 1, "fault-site",
                   f"constant {name} is not listed in kAllSites")
    for name in listed:
        if name not in consts:
            report(header, 1, "fault-site",
                   f"kAllSites references unknown constant {name}")

    inject_re = re.compile(r"fault::Inject\s*\(\s*([^()]*?)\s*\)")
    uses = {}
    src = REPO / "src"
    for path in sorted(src.rglob("*.h")) + sorted(src.rglob("*.cc")):
        if path.is_relative_to(src / "fault"):
            continue  # the framework itself (Inject's definition)
        code = strip_comments_and_strings(path.read_text())
        for no, line in enumerate(code.splitlines(), 1):
            for m in inject_re.finditer(line):
                arg = m.group(1)
                cm = re.fullmatch(r"(?:fault::)?sites::(k\w+)", arg)
                if cm is None:
                    report(path, no, "fault-site",
                           "fault::Inject argument must be a fault::sites:: "
                           f"constant, got `{arg}`")
                elif cm.group(1) not in consts:
                    report(path, no, "fault-site",
                           f"unregistered fault site constant {cm.group(1)}")
                else:
                    uses.setdefault(cm.group(1), []).append((path, no))
    for name, locations in uses.items():
        if len(locations) > 1:
            where = ", ".join(
                f"{p.relative_to(REPO)}:{n}" for p, n in locations)
            report(locations[1][0], locations[1][1], "fault-site",
                   f"site {name} injected at multiple call sites ({where})")
    for name in consts:
        if name in listed and name not in uses:
            report(header, 1, "fault-site",
                   f"registered site {name} is never injected in src/")


def check_metric_names():
    """Cross-file rule: the metric-name registry is closed.

    Every counter()/gauge()/histogram() lookup in src/ must name a constant
    from src/obs/metric_names.h — a raw string literal would drift out of
    dashboards silently. Unlike fault sites, a metric constant may be used
    at many call sites (several layers can legitimately bump one counter).
    Tests and benches may use ad-hoc literals for scratch metrics.
    """
    header = REPO / "src" / "obs" / "metric_names.h"
    if not header.exists():
        return
    text = header.read_text()
    consts = dict(
        re.findall(r'inline constexpr char (k\w+)\[\]\s*=\s*"([^"]+)"', text))
    values = {}
    for name, value in consts.items():
        if value in values:
            report(header, 1, "metric-name",
                   f'constants {values[value]} and {name} share the value '
                   f'"{value}"')
        else:
            values[value] = name

    # strip_comments_and_strings keeps the quotes, so a quote right after
    # the opening paren means a raw literal. `\s` spans newlines: calls
    # wrapped by clang-format still match.
    literal_re = re.compile(r"\.\s*(counter|gauge|histogram)\s*\(\s*\"")
    const_re = re.compile(r"\.\s*(?:counter|gauge|histogram)\s*\(\s*"
                          r"(?:obs::)?metric_names::(k\w+)")
    src = REPO / "src"
    used = set()
    for path in sorted(src.rglob("*.h")) + sorted(src.rglob("*.cc")):
        if path == header:
            continue
        code = strip_comments_and_strings(path.read_text())
        for m in literal_re.finditer(code):
            no = code.count("\n", 0, m.start()) + 1
            report(path, no, "metric-name",
                   f"raw metric-name literal in {m.group(1)}(); use a "
                   "constant from obs/metric_names.h")
        for m in const_re.finditer(code):
            if m.group(1) not in consts:
                no = code.count("\n", 0, m.start()) + 1
                report(path, no, "metric-name",
                       f"unregistered metric constant {m.group(1)}")
            else:
                used.add(m.group(1))
    for name in consts:
        if name not in used:
            report(header, 1, "metric-name",
                   f"registered metric {name} is never used in src/")


def check_compensation(src_root):
    """Cross-file rule: view-scan splicing is BuildCompensation's job.

    Inside src/optimizer/ only compensation.cc may construct a ViewScan
    (`LogicalOp::ViewScan(...)`): every matched view — exact or subsumed —
    splices through BuildCompensation so residual filters, re-aggregation/
    projection compensation, and observed-statistics wiring happen in one
    audited place. A second construction site would bypass the compensation
    contract silently.
    """
    opt = src_root / "optimizer"
    if not opt.exists():
        return
    for path in sorted(opt.rglob("*.h")) + sorted(opt.rglob("*.cc")):
        if path.name == "compensation.cc":
            continue
        code = strip_comments_and_strings(path.read_text())
        for no, line in enumerate(code.splitlines(), 1):
            if re.search(r"\bLogicalOp\s*::\s*ViewScan\s*\(", line):
                report(path, no, "compensation",
                       "LogicalOp::ViewScan constructed outside "
                       "compensation.cc; splice matched views through "
                       "BuildCompensation so compensation and stats wiring "
                       "stay in one place")


PLAN_WRITES = [
    (re.compile(r"\bconst_cast\s*<\s*(?:const\s+)?LogicalOp\b"),
     "const_cast of a LogicalOp"),
    (re.compile(r"(?:->|\.)\s*children\s*(?:\[[^\]]*\]\s*)?=(?!=)"),
     "assignment into a node's children"),
    (re.compile(r"(?:->|\.)\s*children\s*\.\s*(?:push_back|emplace_back|"
                r"emplace|insert|erase|clear|assign|resize|swap|pop_back)"
                r"\s*\("),
     "mutation of a node's children"),
    (re.compile(r"(?<!const )\b(?:LogicalOpPtr\s*&\s*\w+\s*:|"
                r"auto\s*&\s*\w+\s*:\s*[\w.>()-]*children\b)"),
     "mutable child slot bound in a range-for"),
]


def check_plan_immutable(src_root):
    """Cross-file rule: sealed plan nodes are never written.

    A compiled plan is sealed (DESIGN.md "Sealed plans"): rewrites copy the
    path to the root and share every untouched subtree, so a node can sit in
    the optimized plan, the fallback plan, a producer plan and the view
    index at once. Outside the node-construction code in src/plan/, no code
    may cast a LogicalOp's constness away or write into a node's children;
    a write there would change every plan sharing the node. src/sql/ sits
    below src/plan/ and never sees a LogicalOp; its `children` are AST
    expressions, so it is not scanned.
    """
    if not src_root.exists():
        return
    exempt = [src_root / "plan", src_root / "sql"]
    for path in sorted(src_root.rglob("*.h")) + sorted(src_root.rglob("*.cc")):
        if any(path.is_relative_to(d) for d in exempt):
            continue
        code = strip_comments_and_strings(path.read_text())
        for no, line in enumerate(code.splitlines(), 1):
            for pattern, what in PLAN_WRITES:
                if pattern.search(line):
                    report(path, no, "plan-immutable",
                           f"{what} outside src/plan/; plan nodes are "
                           "shared once sealed, so build new parents with "
                           "LogicalOp::WithChildren / RewritePaths")


ROW_ADAPTER_RE = re.compile(r"(?:\.|->)\s*rows?\s*\(")


def check_row_adapter(src_root):
    """Cross-file rule: only the row oracle reads a Table as rows.

    A Table holds typed columns only (DESIGN.md "Columnar execution", "One
    table layout"). Its row adapter builds every cell as a Value on each
    call, which is the reference engine's job and no one else's: outside
    src/exec/physical_op.cc and src/storage/table.*, src/ code reads the
    columns instead.
    """
    if not src_root.exists():
        return
    allowed = [src_root / "exec" / "physical_op.cc",
               src_root / "storage" / "table.h",
               src_root / "storage" / "table.cc"]
    for path in sorted(src_root.rglob("*.h")) + sorted(src_root.rglob("*.cc")):
        if path in allowed:
            continue
        code = strip_comments_and_strings(path.read_text())
        for no, line in enumerate(code.splitlines(), 1):
            if ROW_ADAPTER_RE.search(line):
                report(path, no, "row-adapter",
                       "Table row adapter read outside the row oracle; "
                       "read the typed columns (Table::column) instead")


def check_decision_reasons(src_root):
    """Cross-file rule: the reuse-decision reason registry is closed.

    src/obs/decision_reasons.h is the only place a decision-reason string
    (the UPPER_SNAKE vocabulary of the explain traces and the
    miss-attribution table) may appear as a literal; everywhere else goes
    through DecisionReasonName(). A literal elsewhere would let a reason
    spelling drift away from the enum silently — the exact failure the
    closed registry exists to prevent. The registry itself must be
    coherent: values unique, and the decision_reason_names constants in
    one-to-one correspondence with the kAllDecisionReasons enumerators.

    The vocabulary always comes from the repository's own header so the
    fixture trees under tools/analyzer_fixtures/ don't need to replicate
    it; `src_root` is the tree whose string literals get scanned.
    """
    header = REPO / "src" / "obs" / "decision_reasons.h"
    if not header.exists():
        return
    text = header.read_text()
    names_block = re.search(
        r"namespace decision_reason_names\s*\{(.*?)\}", text, re.S)
    consts = dict(
        re.findall(r'inline constexpr char (k\w+)\[\]\s*=\s*"([^"]+)"',
                   names_block.group(1))) if names_block else {}
    if not consts:
        report(header, 1, "decision-reason",
               "no decision_reason_names constants found in the registry")
        return
    values = {}
    for name, value in consts.items():
        if value in values:
            report(header, 1, "decision-reason",
                   f'constants {values[value]} and {name} share the value '
                   f'"{value}"')
        else:
            values[value] = name
    listed_match = re.search(r"kAllDecisionReasons\[\]\s*=\s*\{(.*?)\};",
                             text, re.S)
    listed = set(re.findall(r"DecisionReason::(k\w+)", listed_match.group(1))
                 ) if listed_match else set()
    for name in consts:
        if name not in listed:
            report(header, 1, "decision-reason",
                   f"constant {name} is not listed in kAllDecisionReasons")
    for name in listed:
        if name not in consts:
            report(header, 1, "decision-reason",
                   f"kAllDecisionReasons enumerator {name} has no "
                   "decision_reason_names constant")

    # Full-token match only: SHARING_SHARE_NOW must not fire on the work
    # sharing module's own "SHARE_NOW" mode label, so each reason is
    # anchored against UPPER_SNAKE neighbors on both sides.
    reason_re = re.compile(
        r"(?<![A-Z0-9_])(?:" + "|".join(
            re.escape(v) for v in sorted(consts.values())) +
        r")(?![A-Z0-9_])")
    string_re = re.compile(r'"(?:[^"\\\n]|\\.)*"')
    if not src_root.exists():
        return
    for path in sorted(src_root.rglob("*.h")) + sorted(src_root.rglob("*.cc")):
        if path.name == "decision_reasons.h":
            continue
        raw = path.read_text()
        for m in string_re.finditer(raw):
            hit = reason_re.search(m.group(0))
            if hit:
                no = raw.count("\n", 0, m.start()) + 1
                report(path, no, "decision-reason",
                       f'raw decision-reason literal "{hit.group(0)}"; use '
                       "DecisionReasonName() / the obs::decision_reason_names "
                       "constant from obs/decision_reasons.h")


def lint_file(path):
    raw = path.read_text()
    raw_lines = raw.splitlines()
    code_lines = strip_comments_and_strings(raw).splitlines()
    # Pad so 1-based indexing never falls off the end.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")

    check_stderr(path, raw_lines, code_lines)
    check_new_delete(path, raw_lines, code_lines)
    check_rng(path, raw_lines, code_lines)
    check_row_value(path, raw_lines, code_lines)
    check_determinism(path, raw_lines, code_lines)
    check_include_blocks(path, raw_lines)
    if path.suffix == ".h":
        check_guard(path, raw_lines)
    if path.suffix == ".cc":
        check_self_include_first(path, raw_lines)


def run_analyzers():
    """Run the standalone analyzers so this script is the full local gate.
    Their diagnostics already carry path:line: [rule] prefixes; forward
    them verbatim and fold the failure into our exit status."""
    failed = False
    for analyzer in ("atomics_lint.py", "layering_lint.py"):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / analyzer),
             "--root", str(REPO / "src")],
            capture_output=True, text=True)
        output = (proc.stdout + proc.stderr).strip()
        if output:
            print(output)
        if proc.returncode != 0:
            failed = True
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="lint an alternate repo-shaped tree "
                             "(DIR/src/...) instead of the repository")
    args = parser.parse_args()

    if args.root is not None:
        # Fixture mode: file rules plus the compensation, plan-immutable,
        # row-adapter and decision-reason cross-file rules over the given
        # tree; the other registry checks and the sub-analyzers stay tied to
        # the real repository. Success is silent (analyzer_test.py asserts
        # clean fixtures produce no output).
        root = Path(args.root).resolve()
        targets = sorted(root.rglob("*.h")) + sorted(root.rglob("*.cc"))
        for path in targets:
            lint_file(path)
        check_compensation(root / "src")
        check_plan_immutable(root / "src")
        check_row_adapter(root / "src")
        check_decision_reasons(root / "src")
        for v in violations:
            print(v)
        return 1 if violations else 0

    fixtures = REPO / "tools" / "analyzer_fixtures"
    targets = []
    for d in SCAN_DIRS:
        targets += sorted((REPO / d).rglob("*.h"))
        targets += sorted((REPO / d).rglob("*.cc"))
    # Fixture trees are deliberate rule violations for analyzer_test.py.
    targets = [t for t in targets if not t.is_relative_to(fixtures)]
    for path in targets:
        lint_file(path)
    check_fault_sites()
    check_metric_names()
    check_compensation(REPO / "src")
    check_plan_immutable(REPO / "src")
    check_row_adapter(REPO / "src")
    check_decision_reasons(REPO / "src")
    analyzers_failed = run_analyzers()
    for v in violations:
        print(v)
    if violations or analyzers_failed:
        if violations:
            print(f"lint: {len(violations)} violation(s) in "
                  f"{len(set(v.split(':')[0] for v in violations))} file(s)",
                  file=sys.stderr)
        if analyzers_failed:
            print("lint: analyzer sub-check failed", file=sys.stderr)
        return 1
    print(f"lint: {len(targets)} files clean (+ atomics, layering)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
