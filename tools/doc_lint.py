#!/usr/bin/env python3
"""Lint the repo docs against the tree they describe.

Usage:
    doc_lint.py [REPO_ROOT]

Checks (all of them; exit 1 if any reference is broken):

  1. Every `bench_<name>` binary mentioned in README.md / EXPERIMENTS.md /
     DESIGN.md has a source file bench/<name>.cpp.
  2. Every repo-rooted path in backticks (src/..., tests/..., tools/...,
     bench/..., docs/..., examples/...) in those documents exists --
     trailing "/" means a directory, otherwise a file.
  3. Every derived-metric name from a BENCH_*.json baseline that CI gates
     (the `bench_compare.py bench/baselines/...` invocations in
     .github/workflows/ci.yml) appears literally in EXPERIMENTS.md, so
     the gated numbers stay explained.
  4. Every scenario name in bench/bench_matrix.cpp's kScenarioNames
     catalog appears in docs/SCENARIOS.md -- adding a scenario to the
     matrix without documenting it is a lint failure.
  5. Every trace-event kind returned by kind_name() in
     src/obs/metrics.cpp appears in README.md and docs/METRICS.md (this
     rule would have caught README's trace-kind list silently going
     stale when update_phase/cache_op were added).
  6. Every backticked `HermesConfig::<field>`, `CacheConfig::<field>` or
     `SimConfig::<field>` in the documents names a field declared in that
     struct in its header (src/hermes/config.h, src/cache/cache_hierarchy.h,
     src/sim/simulation.h), so a deleted option cannot stay documented.

Checks 1-3 and 6 cover README.md / EXPERIMENTS.md / DESIGN.md plus every
Markdown file under docs/, recursively.

The point is cheap honesty: docs routinely outlive renames, and a stale
`bench_foo` or dead path is invisible until a reader trips on it. This
runs as a tier-1 ctest (`doc_lint_py`) and as the CI doc-lint job.
"""

import json
import re
import signal
import sys
from pathlib import Path

# Die quietly when piped into `head` instead of raising BrokenPipeError.
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")

# bench_<name> tokens NOT followed by "." (which would make them file
# names like bench_compare.py or bench_output.txt, checked as paths).
BENCH_TOKEN = re.compile(r"\bbench_[a-z0-9_]+\b(?!\.)")

# Backtick-quoted, repo-rooted paths. Only top-level directories that are
# part of the tree are considered; `build/...` outputs and bare file
# names are intentionally out of scope.
PATH_TOKEN = re.compile(
    r"`((?:src|tests|tools|bench|docs|examples)/[A-Za-z0-9_.\-/]*)`"
)

# CI-gated baselines: the files bench_compare.py is pointed at.
GATED_BASELINE = re.compile(r"bench_compare\.py\s+(bench/baselines/\S+\.json)")

# The scenario catalog literal in bench/bench_matrix.cpp.
SCENARIO_BLOCK = re.compile(r"kScenarioNames\[\][^;]*;")
QUOTED_NAME = re.compile(r'"([a-z0-9_]+)"')

# kind_name() switch cases in src/obs/metrics.cpp: the full set of
# trace-event kinds the obs layer can emit.
KIND_RETURN = re.compile(r'case\s+EventKind::\w+:\s*return\s+"([a-z0-9_]+)"')

# Config structs whose fields the docs name as `Struct::field`, and the
# header that declares each.
CONFIG_HEADERS = {
    "HermesConfig": "src/hermes/config.h",
    "CacheConfig": "src/cache/cache_hierarchy.h",
    "SimConfig": "src/sim/simulation.h",
}
CONFIG_FIELD_TOKEN = re.compile(
    r"`(" + "|".join(CONFIG_HEADERS) + r")::([A-Za-z_][A-Za-z0-9_]*)`"
)
LINE_COMMENT = re.compile(r"//[^\n]*")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def struct_fields(header: str, struct: str):
    """Names of the data members declared directly in `struct`'s body
    (nested braces and parentheses skipped), or None if it is absent."""
    text = LINE_COMMENT.sub("", header)
    start = re.search(r"\bstruct\s+" + struct + r"\s*\{", text)
    if not start:
        return None
    fields, statement, depth = set(), "", 0
    for ch in text[start.end():]:
        if ch in "{(":
            depth += 1
        elif ch in ")}":
            if depth == 0:
                break  # the struct's closing brace
            depth -= 1
        elif depth == 0:
            if ch == ";":
                names = IDENTIFIER.findall(statement.split("=", 1)[0])
                if names:
                    fields.add(names[-1])
                statement = ""
            else:
                statement += ch
    return fields


def lint(root: Path) -> list[str]:
    errors = []
    texts = {}
    names = list(DOCS)
    docs_dir = root / "docs"
    if docs_dir.is_dir():
        names += sorted(
            str(p.relative_to(root)) for p in docs_dir.rglob("*.md")
        )
    for name in names:
        path = root / name
        if not path.is_file():
            errors.append(f"{name}: document missing")
            continue
        texts[name] = path.read_text(encoding="utf-8")

    for name, text in texts.items():
        for tok in sorted(set(BENCH_TOKEN.findall(text))):
            if not (root / "bench" / f"{tok}.cpp").is_file():
                errors.append(f"{name}: `{tok}` has no bench/{tok}.cpp")
        for tok in sorted(set(PATH_TOKEN.findall(text))):
            target = root / tok
            if tok.endswith("/"):
                if not target.is_dir():
                    errors.append(f"{name}: directory `{tok}` does not exist")
            elif not target.exists():
                errors.append(f"{name}: path `{tok}` does not exist")

    ci = root / ".github" / "workflows" / "ci.yml"
    experiments = texts.get("EXPERIMENTS.md", "")
    if not ci.is_file():
        errors.append(".github/workflows/ci.yml: missing")
    else:
        gated = sorted(set(GATED_BASELINE.findall(ci.read_text(encoding="utf-8"))))
        if not gated:
            errors.append("ci.yml: no bench_compare.py gates found")
        for rel in gated:
            baseline = root / rel
            if not baseline.is_file():
                errors.append(f"ci.yml: gated baseline {rel} does not exist")
                continue
            try:
                derived = json.loads(baseline.read_text(encoding="utf-8"))["derived"]
            except (json.JSONDecodeError, KeyError) as exc:
                errors.append(f"{rel}: unreadable derived metrics ({exc})")
                continue
            for key in sorted(derived):
                if key not in experiments:
                    errors.append(
                        f"EXPERIMENTS.md: gated metric `{key}` ({rel}) "
                        "is never mentioned"
                    )

    # 4. Scenario catalog: every matrix scenario is documented.
    matrix = root / "bench" / "bench_matrix.cpp"
    scenarios_doc = texts.get("docs/SCENARIOS.md", "")
    if matrix.is_file():
        block = SCENARIO_BLOCK.search(matrix.read_text(encoding="utf-8"))
        if not block:
            errors.append("bench/bench_matrix.cpp: kScenarioNames not found")
        else:
            scenario_names = QUOTED_NAME.findall(block.group(0))
            if not scenario_names:
                errors.append(
                    "bench/bench_matrix.cpp: kScenarioNames is empty"
                )
            if not scenarios_doc:
                errors.append("docs/SCENARIOS.md: document missing")
            for scenario in scenario_names:
                if scenario not in scenarios_doc:
                    errors.append(
                        f"docs/SCENARIOS.md: scenario `{scenario}` "
                        "(bench/bench_matrix.cpp) is never mentioned"
                    )

    # 5. Trace-event kinds: the kind_name() switch is the source of
    # truth; README's overview list and the METRICS.md catalog must
    # mention every kind it can return.
    metrics_cpp = root / "src" / "obs" / "metrics.cpp"
    if metrics_cpp.is_file():
        kinds = KIND_RETURN.findall(metrics_cpp.read_text(encoding="utf-8"))
        if not kinds:
            errors.append("src/obs/metrics.cpp: no kind_name() cases found")
        for doc in ("README.md", "docs/METRICS.md"):
            text = texts.get(doc, "")
            for kind in kinds:
                if f"`{kind}`" not in text:
                    errors.append(
                        f"{doc}: trace-event kind `{kind}` "
                        "(src/obs/metrics.cpp) is never mentioned"
                    )

    # 6. Config fields named in the docs exist in their struct.
    fields_of = {}
    for name, text in texts.items():
        for struct, field in sorted(set(CONFIG_FIELD_TOKEN.findall(text))):
            if struct not in fields_of:
                header = root / CONFIG_HEADERS[struct]
                fields_of[struct] = (
                    struct_fields(header.read_text(encoding="utf-8"), struct)
                    if header.is_file() else None
                )
            if fields_of[struct] is None:
                errors.append(
                    f"{name}: `{struct}::{field}` but {CONFIG_HEADERS[struct]} "
                    f"declares no struct {struct}"
                )
            elif field not in fields_of[struct]:
                errors.append(
                    f"{name}: `{struct}::{field}` is not a field of {struct} "
                    f"({CONFIG_HEADERS[struct]})"
                )
    return errors


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    errors = lint(root)
    for err in errors:
        print(f"doc_lint: {err}", file=sys.stderr)
    if errors:
        print(f"doc_lint: {len(errors)} broken reference(s)", file=sys.stderr)
        return 1
    docs_dir = root / "docs"
    tree = sorted(docs_dir.rglob("*.md")) if docs_dir.is_dir() else []
    print(f"doc_lint: OK ({', '.join(DOCS)} + {len(tree)} under docs/)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
