#!/usr/bin/env python3
"""Docs drift gate (CI `docs` job).

Four checks, all grep-based and dependency-free:

 1. Every TraceKind enumerator (src/sim/trace.h) and every PhaseId
    enumerator (src/obs/phase.h) must appear in docs/OBSERVABILITY.md.
 2. Every counter name passed as a string literal to StatsRegistry
    add()/set() anywhere under src/ must appear in docs/OBSERVABILITY.md.
    Names built by concatenation ("disk." + name_ + ".writes") become
    wildcard patterns ("disk.*.writes") that must appear verbatim.
 3. Every relative markdown link in the repo's *.md files must point at an
    existing file.
 4. Every `bench_<name>` token in README.md, DESIGN.md, EXPERIMENTS.md and
    docs/*.md must name a target in bench/CMakeLists.txt (a prefix such as
    `bench_ablation_` must match one); `bench_<name>.cc|.py` a file.

`--self-test` proves the gate actually bites: it re-runs check 2 against a
copy of the docs with one documented counter deleted, and check 4 with a
deleted bench planted in the README, and fails unless both are reported.
CI runs both modes, so a TraceKind or counter landing without
documentation, or a doc naming a deleted bench, turns the docs job red.
"""

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OBS_DOC = REPO / "docs" / "OBSERVABILITY.md"

# Counter names look like dotted lowercase paths; this keeps unrelated
# .add()/.set() calls (containers, test fixtures) out of the inventory.
COUNTER_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def fail(errors):
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"{len(errors)} docs error(s)", file=sys.stderr)
    sys.exit(1)


def extract_enumerators(header, enum_name):
    """Enumerator names of `enum class <enum_name>` in `header`."""
    text = header.read_text()
    m = re.search(
        rf"enum\s+class\s+{enum_name}\b[^{{]*\{{(.*?)\}};", text, re.S)
    if not m:
        fail([f"{header}: enum class {enum_name} not found"])
    names = re.findall(r"^\s*(k[A-Za-z0-9_]+)\s*[,=}]", m.group(1), re.M)
    if not names:
        fail([f"{header}: no enumerators parsed for {enum_name}"])
    return names


def split_call_arg(text, start):
    """Return text of the first argument of a call whose '(' is at start."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == '(':
            depth += 1
        elif c == ')':
            depth -= 1
            if depth == 0:
                return text[start + 1:i]
        elif c == ',' and depth == 1:
            return text[start + 1:i]
    return ""


def extract_counters():
    """Counter-name patterns from every .add("...")/.set("...") in src/."""
    patterns = set()
    for path in sorted((REPO / "src").rglob("*.cc")) + sorted(
            (REPO / "src").rglob("*.h")):
        text = path.read_text()
        for m in re.finditer(r"\.(?:add|set)\(", text):
            arg = split_call_arg(text, m.end() - 1)
            literals = re.findall(r'"((?:[^"\\]|\\.)*)"', arg)
            if not literals:
                continue  # fully dynamic name; nothing greppable
            stripped = re.sub(r'"((?:[^"\\]|\\.)*)"', "\x00", arg)
            parts = stripped.split("\x00")
            if "?" in stripped:
                # Ternary: each literal is an alternative full name.
                for lit in literals:
                    if COUNTER_RE.match(lit):
                        patterns.add(lit)
                continue
            # Concatenation: variable segments become '*' wildcards.  A
            # wrapper like std::string("...") is not a concatenation, so a
            # segment only counts when it contains a '+'.
            name = ""
            for i, lit in enumerate(literals):
                if "+" in parts[i]:
                    if not name.endswith("*"):
                        name += "*"
                name += lit
            if "+" in parts[-1]:
                if not name.endswith("*"):
                    name += "*"
            probe = name.replace("*", "x")
            if COUNTER_RE.match(probe):
                patterns.add(name)
    if not patterns:
        fail(["no counter literals found under src/ — extractor broken?"])
    return sorted(patterns)


def check_names_documented(names, doc_text, what):
    return [f"{what} '{n}' is used in src/ but not documented in "
            f"{OBS_DOC.relative_to(REPO)}"
            for n in names if n not in doc_text]


def check_markdown_links():
    errors = []
    md_files = sorted(REPO.glob("*.md")) + sorted(REPO.glob("docs/*.md"))
    link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    for md in md_files:
        text = md.read_text()
        # Strip fenced code blocks: ``` samples often contain [x](y) noise.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for target in link_re.findall(text):
            if re.match(r"[a-z]+://", target) or target.startswith("#"):
                continue
            rel = target.split("#")[0]
            if not rel:
                continue
            if not (md.parent / rel).exists() and not (REPO / rel).exists():
                errors.append(
                    f"{md.relative_to(REPO)}: broken link -> {target}")
    return errors


BENCH_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md"]
BENCH_TOKEN_RE = re.compile(r"\bbench_[a-z0-9_]*(\.(?:cc|py)\b)?")


def bench_doc_texts():
    return {str(p.relative_to(REPO)): p.read_text()
            for pattern in BENCH_DOCS for p in sorted(REPO.glob(pattern))}


def check_bench_names(doc_texts):
    targets = set(re.findall(r"(?:opc_add_bench|add_executable)\(\s*(\w+)",
                             (REPO / "bench/CMakeLists.txt").read_text()))
    files = {p.name for top in REPO.iterdir() if top.is_dir()
             and not top.name.startswith((".", "build"))
             for p in top.rglob("bench_*")}
    errors = []
    for rel, text in doc_texts.items():
        for m in BENCH_TOKEN_RE.finditer(text):
            token = m.group(0)
            known = files if m.group(1) else targets
            if not any(k == token or token.endswith("_") and k.startswith(token)
                       for k in known):
                line = text.count("\n", 0, m.start()) + 1
                errors.append(f"{rel}:{line}: '{token}' names no bench "
                              "target or file")
    return errors


def run_checks(doc_text):
    errors = []
    trace_kinds = extract_enumerators(REPO / "src/sim/trace.h", "TraceKind")
    phase_ids = extract_enumerators(REPO / "src/obs/phase.h", "PhaseId")
    errors += check_names_documented(trace_kinds, doc_text, "TraceKind")
    errors += check_names_documented(phase_ids, doc_text, "PhaseId")
    errors += check_names_documented(extract_counters(), doc_text, "counter")
    return errors


def self_test():
    """The gate must fail when a documented counter disappears from docs."""
    doc_text = OBS_DOC.read_text()
    if run_checks(doc_text):
        fail(["self-test needs a clean baseline; fix the docs first"])
    victim = extract_counters()[0]
    mutated = doc_text.replace(victim, "REDACTED")
    missing = run_checks(mutated)
    if not any(victim in e for e in missing):
        fail([f"self-test: deleting '{victim}' from the docs was NOT "
              "detected — the checker is toothless"])
    print(f"self-test ok: removing '{victim}' from docs is detected "
          f"({len(missing)} error(s) reported)")

    texts = bench_doc_texts()
    stale = "bench_fig6_throughput"
    texts["README.md"] += f"\nRun `build/bench/{stale}`.\n"
    if not any(stale in e for e in check_bench_names(texts)):
        fail([f"self-test: a stale '{stale}' reference was NOT detected"])
    print(f"self-test ok: a stale '{stale}' reference is detected")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--self-test", action="store_true",
                    help="prove the checker fails on an undocumented name")
    args = ap.parse_args()

    if not OBS_DOC.exists():
        fail([f"{OBS_DOC.relative_to(REPO)} is missing"])
    if args.self_test:
        self_test()
        return

    errors = run_checks(OBS_DOC.read_text())
    errors += check_markdown_links()
    errors += check_bench_names(bench_doc_texts())
    if errors:
        fail(errors)
    print("docs ok: trace kinds, phase ids, counters, links, bench names")


if __name__ == "__main__":
    main()
