#!/usr/bin/env python3
"""Domain contract linter: static checks for repo-specific invariants.

The runtime layers (ParanoidChecker, the equivalence suite, the fault
soak) only catch a broken contract when a test happens to exercise it.
This linter enforces the contracts at source level, with file:line
diagnostics, so CI fails the moment a PR breaks one:

  sched-docs       every row of the scheduler registry (kRegistry[] in
                   src/core/factory.cpp) is documented in
                   docs/algorithms.md, and every lcf_* row also in
                   docs/performance.md.
  config-surface   every SimConfig field is documented in
                   docs/simulator.md and exposed as a --flag by the
                   flagship CLI (examples/latency_sweep.cpp); every
                   FaultPlan field is documented in docs/clint.md.
  rng-discipline   no rand()/srand()/std::random_device outside
                   src/util/ — all randomness flows through util::rng's
                   seeded, draw-order-disciplined streams.
  bench-baseline   committed BENCH_*.json baselines were recorded from a
                   Release build.

Exit status: 0 clean, 1 when any contract is violated, 2 on usage error.

`--self-test` runs the linter against synthetic fixture trees with one
seeded violation per rule and verifies each is reported (with a
file:line prefix); it is wired into ctest as contract_lint_selftest.

Adding a rule: write a `check_<name>(root) -> list[Finding]` function,
add it to CHECKS, and extend self_test() with a fixture that trips it.
See docs/static-analysis.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
import tempfile
from typing import Callable, NamedTuple


class Finding(NamedTuple):
    path: pathlib.Path
    line: int  # 1-based; 0 when the finding is about a whole file
    rule: str
    message: str

    def render(self, root: pathlib.Path) -> str:
        try:
            shown = self.path.resolve().relative_to(root.resolve())
        except ValueError:
            shown = self.path
        return f"{shown}:{max(self.line, 1)}: [{self.rule}] {self.message}"


def _read(path: pathlib.Path) -> str:
    return path.read_text(encoding="utf-8")


def _line_of(text: str, needle: str, default: int = 1) -> int:
    """1-based line of the first occurrence of `needle` in `text`."""
    at = text.find(needle)
    if at < 0:
        return default
    return text.count("\n", 0, at) + 1


# ---------------------------------------------------------------------------
# sched-docs
# ---------------------------------------------------------------------------

_FACTORY = pathlib.Path("src/core/factory.cpp")
_ALGO_DOCS = pathlib.Path("docs/algorithms.md")
_PERF_DOCS = pathlib.Path("docs/performance.md")

# Each docs file and the registry rows it must name: algorithms.md all
# of them, performance.md the optimized LCF families, whose kernels and
# per-bit twins it describes.
_SCHED_DOCS = (
    (_ALGO_DOCS, re.compile(r"")),
    (_PERF_DOCS, re.compile(r"^lcf_(central|dist)")),
)


def _registry_rows(factory_text: str) -> list[tuple[str, int]]:
    """(name, line) of each `{"name", make}` row of kRegistry[]."""
    table = re.search(
        r"kRegistry\[\]\s*=\s*{(.*?)\n};", factory_text, re.DOTALL
    )
    if not table:
        return []
    return [
        (match.group(1),
         factory_text.count("\n", 0, table.start(1) + match.start()) + 1)
        for match in re.finditer(r'{\s*"([^"]+)"[^}]*}', table.group(1))
    ]


def check_sched_docs(root: pathlib.Path) -> list[Finding]:
    factory_path = root / _FACTORY
    rows = _registry_rows(_read(factory_path))
    if not rows:
        return [Finding(
            factory_path, 1, "sched-docs",
            "no kRegistry[] rows found — the scheduler registry table "
            "moved or changed shape, so this linter cannot check it",
        )]
    findings: list[Finding] = []
    for docs_path, rows_named in _SCHED_DOCS:
        docs = _read(root / docs_path) if (root / docs_path).exists() else ""
        findings.extend(
            Finding(
                factory_path, line, "sched-docs",
                f'scheduler "{name}" is registered but not documented in '
                f"{docs_path}",
            )
            for name, line in rows
            if rows_named.match(name) and name not in docs
        )
    return findings


# ---------------------------------------------------------------------------
# config-surface
# ---------------------------------------------------------------------------

_SIM_CONFIG = pathlib.Path("src/sim/switch_sim.hpp")
_FAULT_PLAN = pathlib.Path("src/fault/fault_plan.hpp")
_FLAGSHIP_CLI = pathlib.Path("examples/latency_sweep.cpp")
_SIM_DOCS = pathlib.Path("docs/simulator.md")
_CLINT_DOCS = pathlib.Path("docs/clint.md")

# SimConfig fields with no scalar CLI mapping; each entry must say why.
_CLI_EXEMPT = {
    "mode": "selected via the configuration name (fifo/outbuf/...)",
    "fault_plan": "structured schedule, built programmatically or via "
    "the fault_storm example's flags",
}

_FIELD_RE = re.compile(
    r"^\s*(?:[\w:]+(?:\s*<[^;=]*>)?)\s+(\w+)\s*(?:=[^;]*)?;", re.MULTILINE
)


def _struct_fields(text: str, struct_name: str,
                   path: pathlib.Path) -> list[tuple[str, int]]:
    """(field, line) pairs of a struct's data members, brace-matched."""
    match = re.search(r"struct\s+" + struct_name + r"\s*{", text)
    if not match:
        return []
    depth = 0
    start = match.end() - 1
    end = start
    for at in range(start, len(text)):
        if text[at] == "{":
            depth += 1
        elif text[at] == "}":
            depth -= 1
            if depth == 0:
                end = at
                break
    body = text[start + 1:end]
    fields = []
    for field_match in _FIELD_RE.finditer(body):
        decl = field_match.group(0).strip()
        name = field_match.group(1)
        # Skip function declarations, defaulted parameters, and constants
        # the regex can't tell apart from data members.
        if ("(" in decl or ")" in decl
                or decl.startswith(("static", "return", "using"))):
            continue
        line = (
            text.count("\n", 0, start + 1 + field_match.start(1)) + 1
        )
        fields.append((name, line))
    del path  # kept in the signature for symmetric call sites
    return fields


def check_config_surface(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []

    sim_path = root / _SIM_CONFIG
    sim_text = _read(sim_path)
    sim_docs = _read(root / _SIM_DOCS) if (root / _SIM_DOCS).exists() else ""
    cli_path = root / _FLAGSHIP_CLI
    cli_text = _read(cli_path) if cli_path.exists() else ""

    for field, line in _struct_fields(sim_text, "SimConfig", sim_path):
        if f"`{field}`" not in sim_docs and f"::{field}" not in sim_docs:
            findings.append(Finding(
                sim_path, line, "config-surface",
                f"SimConfig::{field} is not documented in {_SIM_DOCS} — "
                "add it to the configuration reference table",
            ))
        if field in _CLI_EXEMPT:
            continue
        flag = field.replace("_", "-")
        if f'"{flag}"' not in cli_text and f'"{field}"' not in cli_text:
            findings.append(Finding(
                sim_path, line, "config-surface",
                f"SimConfig::{field} has no --{flag} flag in "
                f"{_FLAGSHIP_CLI} (the flagship CLI must expose every "
                "scalar simulation knob)",
            ))

    fault_path = root / _FAULT_PLAN
    if fault_path.exists():
        fault_text = _read(fault_path)
        clint_docs = (
            _read(root / _CLINT_DOCS) if (root / _CLINT_DOCS).exists() else ""
        )
        for field, line in _struct_fields(fault_text, "FaultPlan", fault_path):
            if f"`{field}`" not in clint_docs:
                findings.append(Finding(
                    fault_path, line, "config-surface",
                    f"FaultPlan::{field} is not documented in "
                    f"{_CLINT_DOCS} — add it to the fault-plan field "
                    "table",
                ))
    return findings


# ---------------------------------------------------------------------------
# rng-discipline
# ---------------------------------------------------------------------------

_RNG_SCAN_DIRS = ("src", "tests", "bench", "examples", "fuzz")
_RNG_BANNED = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand)\s*\(|std::random_device"
)


def check_rng_discipline(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for scan_dir in _RNG_SCAN_DIRS:
        base = root / scan_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in {".cpp", ".hpp", ".h", ".cc"}:
                continue
            if (root / "src" / "util") in path.parents:
                continue  # util/ owns the RNG implementation
            for number, text in enumerate(
                _read(path).splitlines(), start=1
            ):
                code = text.split("//", 1)[0]
                if _RNG_BANNED.search(code):
                    findings.append(Finding(
                        path, number, "rng-discipline",
                        "raw rand()/srand()/std::random_device — use the "
                        "seeded streams in util/rng.hpp so runs stay "
                        "deterministic and draw-order stable",
                    ))
    return findings


# ---------------------------------------------------------------------------
# bench-baseline
# ---------------------------------------------------------------------------


def check_bench_baseline(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            build_type = json.loads(_read(path)).get("build_type")
        except (json.JSONDecodeError, OSError) as error:
            findings.append(Finding(
                path, 1, "bench-baseline", f"unreadable baseline: {error}"
            ))
            continue
        if build_type != "Release":
            findings.append(Finding(
                path, _line_of(_read(path), "build_type"), "bench-baseline",
                f'build_type is "{build_type}" — perf baselines must be '
                "recorded from a Release build "
                "(tools/make_bench_baseline.py)",
            ))
    return findings


CHECKS: dict[str, Callable[[pathlib.Path], list[Finding]]] = {
    "sched-docs": check_sched_docs,
    "config-surface": check_config_surface,
    "rng-discipline": check_rng_discipline,
    "bench-baseline": check_bench_baseline,
}


def run_checks(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for check in CHECKS.values():
        findings.extend(check(root))
    return findings


# ---------------------------------------------------------------------------
# self-test fixtures: one seeded violation per rule
# ---------------------------------------------------------------------------

_FIXTURE_FACTORY = """\
namespace lcf::core {
constexpr SchedulerEntry kRegistry[] = {
    {"lcf_central", central<RrVariant::kNone>},
    {"islip", configured<sched::IslipScheduler>},
};
}
"""

_FIXTURE_SIM_CONFIG = """\
namespace lcf::sim {
struct SimConfig {
    std::size_t ports = 16;
    std::uint64_t mystery_knob = 7;
};
}
"""


def _expect(condition: bool, what: str, failures: list[str]) -> None:
    if not condition:
        failures.append(what)


def self_test() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="lint_contracts_") as tmp:
        root = pathlib.Path(tmp)
        (root / "src/core").mkdir(parents=True)
        (root / "src/sim").mkdir(parents=True)
        (root / "src/sched").mkdir(parents=True)
        (root / "docs").mkdir()

        (root / _FACTORY).write_text(_FIXTURE_FACTORY)
        (root / _ALGO_DOCS).write_text("# algorithms\n\nonly islip here\n")
        (root / _PERF_DOCS).write_text("# perf\n")
        (root / _SIM_CONFIG).write_text(_FIXTURE_SIM_CONFIG)
        (root / _SIM_DOCS).write_text("# sim\n\n`ports` is documented\n")
        (root / _FLAGSHIP_CLI).parent.mkdir(parents=True, exist_ok=True)
        (root / _FLAGSHIP_CLI).write_text('cli.flag("ports", "...", &p);\n')
        (root / "src/sched/bad_rng.cpp").write_text(
            "#include <random>\n"
            "int draw() { std::random_device rd; return rand(); }\n"
        )
        (root / "BENCH_debug.json").write_text(
            json.dumps({"build_type": "Debug", "results": []})
        )

        findings = run_checks(root)
        by_rule: dict[str, list[Finding]] = {}
        for finding in findings:
            by_rule.setdefault(finding.rule, []).append(finding)

        docs = by_rule.get("sched-docs", [])
        for missing in (_ALGO_DOCS, _PERF_DOCS):
            _expect(
                any('"lcf_central"' in f.message and f.line == 3
                    and str(missing) in f.message for f in docs),
                f"sched-docs: lcf_central missing from {missing} at "
                "factory.cpp:3",
                failures,
            )
        surface = by_rule.get("config-surface", [])
        _expect(
            any("mystery_knob" in f.message and "documented" in f.message
                for f in surface),
            "config-surface: undocumented SimConfig field",
            failures,
        )
        _expect(
            any("--mystery-knob" in f.message for f in surface),
            "config-surface: missing CLI flag",
            failures,
        )
        rng = by_rule.get("rng-discipline", [])
        _expect(
            any(f.path.name == "bad_rng.cpp" and f.line == 2 for f in rng),
            "rng-discipline: bad_rng.cpp:2",
            failures,
        )
        _expect(
            any(f.rule == "bench-baseline" for f in findings),
            "bench-baseline: Debug baseline rejected",
            failures,
        )
        # Every reported finding must carry a parseable file:line prefix.
        _expect(
            all(re.match(r"^[^:]+:\d+: \[[\w-]+\] ", f.render(root))
                for f in findings),
            "all findings have file:line: [rule] prefixes",
            failures,
        )

        # A clean fixture must produce no findings: repair everything and
        # re-run.
        (root / _ALGO_DOCS).write_text("covers lcf_central and islip\n")
        (root / _PERF_DOCS).write_text("lcf_central twin story\n")
        (root / _SIM_DOCS).write_text("`ports` and `mystery_knob`\n")
        (root / _FLAGSHIP_CLI).write_text(
            'cli.flag("ports", ...).flag("mystery-knob", ...);\n'
        )
        (root / "src/sched/bad_rng.cpp").write_text(
            "// rand() only in this comment\nint draw();\n"
        )
        (root / "BENCH_debug.json").write_text(
            json.dumps({"build_type": "Release", "results": []})
        )
        leftover = run_checks(root)
        _expect(
            leftover == [],
            "clean fixture yields no findings, got: "
            + "; ".join(f.render(root) for f in leftover),
            failures,
        )

    if failures:
        print("lint_contracts self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"lint_contracts self-test OK ({len(CHECKS)} rules exercised)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Domain contract linter (see docs/static-analysis.md)"
    )
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root to lint (default: inferred from this script)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify each rule fires on a seeded-violation fixture tree",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if not (args.root / _FACTORY).exists():
        print(
            f"lint_contracts: {args.root} does not look like the repo root "
            f"(missing {_FACTORY})",
            file=sys.stderr,
        )
        return 2

    findings = run_checks(args.root)
    for finding in findings:
        print(finding.render(args.root))
    if findings:
        print(
            f"lint_contracts: {len(findings)} contract violation(s)",
            file=sys.stderr,
        )
        return 1
    print(f"lint_contracts: clean ({len(CHECKS)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
