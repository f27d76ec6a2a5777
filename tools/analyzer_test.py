#!/usr/bin/env python3
"""Self-test for tools/atomics_lint.py and tools/layering_lint.py.

Runs each analyzer over the miniature trees in tools/analyzer_fixtures/ and
asserts the exact contract: clean trees exit 0 with no diagnostics, each bad
tree exits 1 AND emits the specific rule tag the fixture exists to catch.
Checking the tag (not just the exit code) means an analyzer that starts
failing for the wrong reason — a crash, a path error, an overbroad rule —
fails this test rather than masquerading as coverage.

Finally, both analyzers must pass over the real src/ tree: the discipline
they enforce is only honest if the shipped code satisfies it.

Run: python3 tools/analyzer_test.py
"""

import os
import subprocess
import sys

TOOLS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TOOLS)
FIXTURES = os.path.join(TOOLS, "analyzer_fixtures")

ATOMICS = os.path.join(TOOLS, "atomics_lint.py")
LAYERING = os.path.join(TOOLS, "layering_lint.py")
LINT = os.path.join(TOOLS, "lint.py")

# (analyzer, fixture dir, expected exit, required diagnostic substrings)
CASES = [
    (ATOMICS, "atomics_missing_protocol", 1,
     ["[atomic-protocol]", "no '// atomic[<order>]"]),
    (ATOMICS, "atomics_bad_order", 1,
     ["[atomic-protocol]", "unknown order 'atomic[sequential]'"]),
    (ATOMICS, "atomics_bad_relaxed", 1,
     ["[atomic-relaxed]", "'ready_'"]),
    (ATOMICS, "atomics_hot_default", 1,
     ["[atomic-default-order]", "'stop_.store(...)'"]),
    (ATOMICS, "atomics_unpaired_release", 1,
     ["[atomic-pairing]", "'flag_'"]),
    (ATOMICS, "atomics_clean", 0, []),
    (LAYERING, "layering_bad", 1,
     ["[layering]", "module 'common' must not include 'core'"]),
    (LAYERING, "layering_unknown", 1,
     ["[layering]", "module 'vendor' is not declared"]),
    (LAYERING, "layering_clean", 0, []),
    (LAYERING, "layering_thread_pool_bad", 1,
     ["[layering]", "operator.cc:4:",
      "module 'exec' must not include \"common/thread_pool.h\""]),
    (LAYERING, "layering_thread_pool_clean", 0, []),
    (LINT, "compensation_bad", 1,
     ["[compensation]", "BuildCompensation"]),
    (LINT, "compensation_clean", 0, []),
    (LINT, "plan_immutable_bad", 1,
     ["[plan-immutable]", "const_cast of a LogicalOp",
      "assignment into a node's children",
      "mutable child slot bound in a range-for", "WithChildren"]),
    (LINT, "plan_immutable_clean", 0, []),
    (LINT, "row_adapter_bad", 1,
     ["[row-adapter]", "sampled_views.cc:9:", "sampled_views.cc:12:",
      "view_store.cc:9:", "Table::column"]),
    (LINT, "row_adapter_clean", 0, []),
    (LINT, "decision_reason_bad", 1,
     ["[decision-reason]", '"EXACT_HIT"', "DecisionReasonName"]),
    (LINT, "decision_reason_clean", 0, []),
]


def run_case(analyzer, fixture, expected_exit, needles):
    root = os.path.join(FIXTURES, fixture)
    proc = subprocess.run(
        [sys.executable, analyzer, "--root", root],
        capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    failures = []
    if proc.returncode != expected_exit:
        failures.append(
            f"exit {proc.returncode}, expected {expected_exit}")
    for needle in needles:
        if needle not in output:
            failures.append(f"missing diagnostic {needle!r}")
    if expected_exit == 0 and output.strip():
        failures.append(f"unexpected output: {output.strip()!r}")
    return failures, output


def main():
    failed = 0
    for analyzer, fixture, expected_exit, needles in CASES:
        failures, output = run_case(analyzer, fixture, expected_exit, needles)
        label = f"{os.path.basename(analyzer)} / {fixture}"
        if failures:
            failed += 1
            print(f"FAIL {label}: {'; '.join(failures)}", file=sys.stderr)
            if output.strip():
                for line in output.strip().splitlines():
                    print(f"  | {line}", file=sys.stderr)
        else:
            print(f"ok   {label}")

    # The analyzers must also hold on the real tree.
    for analyzer in (ATOMICS, LAYERING):
        proc = subprocess.run(
            [sys.executable, analyzer, "--root", os.path.join(REPO, "src")],
            capture_output=True, text=True)
        label = f"{os.path.basename(analyzer)} / src"
        if proc.returncode != 0:
            failed += 1
            print(f"FAIL {label}:", file=sys.stderr)
            for line in (proc.stdout + proc.stderr).strip().splitlines():
                print(f"  | {line}", file=sys.stderr)
        else:
            print(f"ok   {label}")

    if failed:
        print(f"analyzer_test: {failed} case(s) failed", file=sys.stderr)
        return 1
    print(f"analyzer_test: {len(CASES) + 2} cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
