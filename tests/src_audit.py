"""Check that Tier-1 runs every line, every code object and both outcomes
of every `if` statement in src/chiraltorus.

Run it from the repository root, on Python 3.11 or later:

    PYTHONPATH=src python tests/src_audit.py [extra pytest arguments]

It arms a sys.settrace tracer and runs Tier-1 in this process through
pytest.main, with hypothesis's seed fixed at 0: a branch that only some
random draws reach would otherwise pass or fail the audit by chance (the
zero entry of FockTruncation._operator is one that test_sugawara's
property reaches on some seeds and not on others).  The tracer follows
only frames whose code lives in src/chiraltorus, and records the lines
they run, their line-to-line arcs and the code objects they enter.  A RecursionError raised inside a trace
function switches tracing off for the rest of the thread, so the tracer
is armed again at each test's setup, call and teardown.

What exists is read off the source with compile and ast: every line that
co_lines() gives an instruction (a module's RESUME sits on line 0, which
is no line), every code object (module and class bodies, functions,
lambdas, comprehensions) and every `if` statement.  An
`if` was true when an arc leaves its test for the first line of its body,
and false when an arc leaves its test for any other line or returns.

An item that never ran must lie inside a statement named in ALLOWED by
file, kind and stripped first line of source, with the reason it cannot
run under Tier-1.  The script exits 1 when an unrun item is not allowed,
when an ALLOWED statement no longer exists, or when everything inside it
now runs; it exits 1 too when Tier-1 itself fails.  It prints its counts
on lines that start with "src_audit:".

The file name does not start with test_, so Tier-1 does not collect it.
"""

import ast
import os
import sys
import time
from pathlib import Path
from types import CodeType

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chiraltorus"
# the Tier-1 command, less its --durations report, with the draws fixed
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "-W", "error",
               "--hypothesis-seed=0"]
NESTED = {"<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
KINDS = {"if": ast.If, "except": ast.ExceptHandler}

ALLOWED = (
    ("cli.py", "if", 'if __name__ == "__main__":',
     "the console script calls main() directly; the guard serves only "
     "`python -m chiraltorus.cli`, which no in-process test can run"),
    ("jetcalc.py", "except", "except RecursionError:",
     "it runs only after the RecursionError has switched tracing off; the "
     "300-deep case in tests/test_cli.py and the CI console step reach it"),
)


class Tracer:
    """Lines, arcs and entered code objects of the frames under SRC.

    An arc is (code, from, to) with line numbers; -co_firstlineno stands
    for entering the frame as a source and for leaving it as a target,
    and 0 for the handler of an exception as a source."""

    def __init__(self):
        self.arcs, self.entered, self._watched = set(), set(), {}
        self._root = str(SRC) + os.sep

    def arm(self):
        sys.settrace(self._call)

    def _call(self, frame, event, arg):
        code = frame.f_code
        watched = self._watched.get(code)
        if watched is None:
            watched = self._watched[code] = os.path.realpath(
                code.co_filename).startswith(self._root)
        if not watched:
            return None
        self.entered.add(code)
        arcs, first = self.arcs, -code.co_firstlineno
        last = first

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                arcs.add((code, last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "exception":
                last = 0
            elif event == "return":
                arcs.add((code, last, first))
            return local

        return local


class Rearm:
    """The pytest plugin that arms the tracer again around every phase."""

    def __init__(self, tracer):
        self.tracer = tracer

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.tracer.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.tracer.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        self.tracer.arm()


def _code_key(code):
    return code.co_qualname, code.co_firstlineno, tuple(code.co_positions())


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def _source_items(path, text):
    """(lines, code objects, ifs) of one source file: the executable
    lines, {key: code} of every code object, and for each `if` statement
    (owner key, test lines, first body line, line)."""
    codes = {_code_key(c): c for c in _code_objects(compile(text, str(path), "exec"))}
    lines, owner = set(), {}
    for key, code in codes.items():
        own = {line for _, _, line in code.co_lines() if line}
        lines |= own
        if code.co_name not in NESTED:
            for line in own:
                owner[line] = key
    ifs = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.If):
            test = range(node.lineno, node.test.end_lineno + 1)
            key = next(owner[line] for line in test if line in owner)
            ifs.append((key, test, node.body[0].lineno, node.lineno))
    return lines, codes, ifs


def _unrun(tracer, sources):
    """Every unrun item as (file, line, what), with the counts of what
    exists and what ran."""
    arcs = {}
    for code, a, b in tracer.arcs:
        arcs.setdefault(_code_key(code), set()).add((a, b))
    entered = {(os.path.realpath(c.co_filename), _code_key(c)) for c in tracer.entered}
    found, counts = [], dict.fromkeys(
        ("lines", "lines_run", "codes", "codes_run", "ifs", "outcomes_run"), 0)
    for name, text in sources.items():
        path = SRC / name
        lines, codes, ifs = _source_items(path, text)
        run = {b for key in codes for _, b in arcs.get(key, ()) if b > 0}
        counts["lines"] += len(lines)
        counts["lines_run"] += len(lines & run)
        found += [(name, line, "line never runs") for line in sorted(lines - run)]
        for key in codes:
            counts["codes"] += 1
            if (str(path), key) in entered:
                counts["codes_run"] += 1
            else:
                found.append((name, key[1], f"code object {key[0]} never entered"))
        for owner, test, body, line in ifs:
            outs = {b for a, b in arcs.get(owner, ()) if a in test and b not in test}
            counts["ifs"] += 1
            for outcome, taken in (("true", body in outs), ("false", bool(outs - {body}))):
                counts["outcomes_run"] += taken
                if not taken:
                    found.append((name, line, f"`if` never {outcome}"))
    return sorted(found), counts


def _allowed_spans(sources):
    """{entry: (first, last) line of its statement}, and the entries
    whose statement is missing or not unique."""
    spans, bad = {}, []
    for entry in ALLOWED:
        name, kind, stripped, _ = entry
        text = sources.get(name, "")
        source = text.splitlines()
        nodes = [node for node in ast.walk(ast.parse(text))
                 if isinstance(node, KINDS[kind])
                 and source[node.lineno - 1].strip() == stripped]
        if len(nodes) == 1:
            spans[entry] = nodes[0].lineno, nodes[0].end_lineno
        else:
            bad.append((entry, "no longer exists" if not nodes else "is not unique"))
    return spans, bad


def audit(tracer, sources, seconds) -> int:
    found, counts = _unrun(tracer, sources)
    spans, bad = _allowed_spans(sources)
    covered = {entry: [] for entry in spans}
    failures = []
    for name, line, what in found:
        owners = [entry for entry, (a, b) in spans.items()
                  if entry[0] == name and a <= line <= b]
        for entry in owners:
            covered[entry].append((name, line, what))
        if not owners:
            failures.append((name, line, what))
    bad += [(entry, "now runs: delete the entry") for entry, items in covered.items()
            if not items]
    for name, line, what in failures:
        text = sources[name].splitlines()[line - 1].strip()
        print(f"src/chiraltorus/{name}:{line}: {what}: {text}")
    for (name, kind, stripped, _), why in bad:
        print(f"ALLOWED entry ({name}, {kind}, {stripped!r}) {why}")
    allowed = sum(map(len, covered.values()))
    print(f"src_audit: {seconds:.1f} s for Tier-1 under the tracer")
    print(f"src_audit: lines {counts['lines_run']} of {counts['lines']} run, "
          f"{len(tracer.arcs)} arcs seen")
    print(f"src_audit: code objects {counts['codes_run']} of {counts['codes']} entered")
    print(f"src_audit: if outcomes {counts['outcomes_run']} of {2 * counts['ifs']} taken")
    print(f"src_audit: {len(spans)} allowlist entries cover {allowed} unrun items; "
          f"{len(failures)} unrun items not allowed, {len(bad)} stale entries")
    return 1 if failures or bad else 0


def main(argv) -> int:
    # the source as it is when the modules are imported, so that an edit
    # made during the run cannot shift the lines the tracer saw
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    tracer = Tracer()
    start = time.perf_counter()
    tracer.arm()
    try:
        status = pytest.main(PYTEST_ARGS + argv, plugins=[Rearm(tracer)])
    finally:
        sys.settrace(None)
    seconds = time.perf_counter() - start
    if status != 0:
        print(f"src_audit: Tier-1 failed under the tracer (pytest exit {int(status)})")
        return 1
    if not tracer.entered:
        print(f"src_audit: no code under {SRC} ran; put src on PYTHONPATH")
        return 1
    return audit(tracer, sources, seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
