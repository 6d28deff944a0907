"""Coverage and mutation audit of src/fouriergit under the tier-1 suite.

    python tools/audit.py coverage                # statements tier-1 never runs
    python tools/audit.py mutate                  # every mutant of the library
    python tools/audit.py mutate planner.py:264   # the mutants of one line
    python tools/audit.py mutate _domain.py:32:51 # one mutant

coverage runs tier-1 in one process under sys.settrace (child processes
are not traced) and lists the statements of src/fouriergit that never run.
mutate makes one mutant per comparison, arithmetic and numeric-constant
site of the library modules and cli.py (MODULES): a comparison moves its
boundary or is negated, an arithmetic operator becomes its inverse (**
becomes *, // and % become /), a unary minus is dropped, an integer grows
by one and a float by half (0.0 becomes 1.0). Each mutant runs its module's tests and,
if they pass, all of tier-1; a failure or a timeout kills it. Mutants run
in an order shuffled with a fixed seed, so a run cut short still samples
every module. Both commands work in a temporary copy of the repository,
without bytecode files, and never write to the checkout.
"""

from __future__ import annotations

import ast
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "fouriergit")
# library module -> its tests, which a mutant runs before tier-1
MODULES = {
    "_backend.py": "tests/test_backend.py",
    "_domain.py": "tests/test_domain.py",
    "cli.py": "tests/test_cli.py",
    "kernel.py": "tests/test_kernel.py",
    "moments.py": "tests/test_moments.py",
    "planner.py": "tests/test_planner.py",
    "serialize.py": "tests/test_cli.py",
    "spectrum.py": "tests/test_spectrum.py",
    "transform.py": "tests/test_transform.py",
}
SEED = 2026
# operator -> (regex of its token, replacement)
COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
           ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
           ast.Is: ("is", "is not"), ast.IsNot: (r"is\s+not", "is"),
           ast.In: ("in", "not in"), ast.NotIn: (r"not\s+in", "in")}
ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
         ast.Div: ("/", "*"), ast.FloorDiv: ("//", "/"), ast.Mod: ("%", "/"),
         ast.Pow: ("**", "*")}
_OPERATOR = re.compile(r"<=|>=|==|!=|<|>|\bis\s+not\b|\bis\b|\bnot\s+in\b|\bin\b"
                       r"|\*\*=?|//=?|[-+*/%]=?")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]


def _copy(tmp: Path) -> Path:
    """The repository's working files under tmp, without git or caches."""
    dest = tmp / "repo"
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench*"))
    return dest


def _env(repo: Path) -> dict:
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=str(repo / "src"))


def _offset(lines: list[bytes], lineno: int, col: int) -> int:
    """Byte offset in the file of an ast (lineno, col_offset) position."""
    return sum(len(line) for line in lines[: lineno - 1]) + col


def _code_gap(text: bytes, start: int, stop: int) -> str:
    """text[start:stop] with comments blanked, so offsets stay put."""
    gap = text[start:stop].decode()
    return re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), gap)


def _operator(text, lines, left, right, want):
    """(offset, old) of the operator between two nodes, which must read
    as want (a regex match of the operator token)."""
    start = _offset(lines, left.end_lineno, left.end_col_offset)
    stop = _offset(lines, right.lineno, right.col_offset)
    match = _OPERATOR.search(_code_gap(text, start, stop))
    assert match and re.fullmatch(want, match.group()), (left.lineno, want)
    return start + match.start(), match.group()


def mutants(module: str) -> list[tuple]:
    """(site, offset, old, new) of every mutant of a library module, site
    'module:line:col' of the replaced text."""
    text = (ROOT / PACKAGE / module).read_bytes()
    lines = text.splitlines(keepends=True)
    tree = ast.parse(text)
    skip = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
            for n in ast.walk(f)}  # f-string parts carry no reliable positions
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators],
                                       node.ops, node.comparators):
                want, new = COMPARE[type(op)]
                found.append((*_operator(text, lines, left, right, want), new))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITH:
            old, new = ARITH[type(node.op)]
            aug = isinstance(node, ast.AugAssign)
            left = node.target if aug else node.left
            right = node.value if aug else node.right
            pos, token = _operator(text, lines, left, right,
                                   re.escape(old + "=" * aug))
            found.append((pos, token, new + "=" * aug))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            found.append((_offset(lines, node.lineno, node.col_offset), "-", ""))
        elif (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
              and isinstance(node.value, (int, float, complex))):
            pos = _offset(lines, node.lineno, node.col_offset)
            end = _offset(lines, node.end_lineno, node.end_col_offset)
            v = node.value
            new = v + 1 if isinstance(v, int) else (v * 1.5 if v else 1.0)
            found.append((pos, text[pos:end].decode(), repr(new)))
    out = []
    for pos, old, new in sorted(found):
        line = text.count(b"\n", 0, pos) + 1
        col = pos - _offset(lines, line, 0)
        out.append((f"{module}:{line}:{col}", pos, old, new))
    return out


def _run(repo: Path, tests: str, timeout: float) -> str:
    """'passed', 'failed' or 'timeout' of pytest on tests in repo."""
    try:
        done = subprocess.run(PYTEST + [tests], cwd=repo, env=_env(repo),
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def mutate(selected: list[str]) -> int:
    todo = [(m, *mut) for m in MODULES for mut in mutants(m)
            if not selected or any(mut[0] == s or mut[0].startswith(s + ":")
                                   for s in selected)]
    if not todo:
        print(f"no mutant at {' '.join(selected)}", file=sys.stderr)
        return 2
    random.Random(SEED).shuffle(todo)
    with tempfile.TemporaryDirectory(prefix="fouriergit-audit-") as tmp:
        repo = _copy(Path(tmp))
        budget = {}  # tests -> timeout, from a run without a mutant
        killed = 0
        for module, site, pos, old, new in todo:
            path = repo / PACKAGE / module
            source = path.read_bytes()
            mutant = source[:pos] + new.encode() + source[pos + len(old):]
            try:
                for where in (MODULES[module], "tests"):
                    if where not in budget:
                        path.write_bytes(source)
                        start = time.monotonic()
                        if _run(repo, where, 3600) != "passed":
                            raise SystemExit(f"{where} fail without a mutant")
                        budget[where] = 3 * (time.monotonic() - start) + 30
                    path.write_bytes(mutant)
                    verdict = _run(repo, where, budget[where])
                    if verdict != "passed":
                        break
            finally:
                path.write_bytes(source)
            outcome = "survived" if verdict == "passed" else "killed"
            killed += outcome == "killed"
            detail = f" ({verdict})" if verdict == "timeout" else ""
            print(f"{outcome:8} {site:22} {old!r} -> {new!r}  by {where}{detail}",
                  flush=True)
    total = len(todo)
    print(f"mutants={total} killed={killed} survived={total - killed} "
          f"score={100 * killed / total:.1f}%")
    return 0


_TRACE = """
import json, sys, threading
prefix, out = sys.argv[1], sys.argv[2]
hits = {}
def tracer(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(prefix):
        return None
    lines = hits.setdefault(name, set())
    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local
    return local(frame, event, arg)
sys.settrace(tracer)
threading.settrace(tracer)
import pytest
code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
sys.settrace(None)
with open(out, "w") as fh:
    json.dump({k: sorted(v) for k, v in hits.items()}, fh)
sys.exit(code)
"""


def _statements(source: str, filename: str) -> list[tuple[int, int]]:
    """(first, last) line of every statement that compiles to code: a
    simple statement's span, or a compound one's header."""
    code_lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for *_, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        if code_lines & set(range(first, max(first, last) + 1)):
            spans.append((first, max(first, last)))
    return sorted(spans)


def coverage() -> int:
    with tempfile.TemporaryDirectory(prefix="fouriergit-audit-") as tmp:
        repo = _copy(Path(tmp))
        prefix, out = str(repo / PACKAGE), str(Path(tmp) / "hits.json")
        done = subprocess.run([sys.executable, "-c", _TRACE, prefix, out],
                              cwd=repo, env=_env(repo), capture_output=True,
                              text=True)
        print(done.stdout.strip().splitlines()[-1])
        hits = {Path(k).name: set(v)
                for k, v in json.loads(Path(out).read_text()).items()}
    total = run = 0
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        source = path.read_text()
        spans = _statements(source, str(path))
        seen = hits.get(path.name, set())
        missed = [s for s in spans if not seen & set(range(s[0], s[1] + 1))]
        total, run = total + len(spans), run + len(spans) - len(missed)
        print(f"{path.name}: {len(spans) - len(missed)}/{len(spans)} statements run")
        text = source.splitlines()
        for first, last in missed:
            print(f"  never runs {path.name}:{first}: {text[first - 1].strip()}")
    print(f"statements={total} run={run} never={total - run}")
    return done.returncode


def main(argv: list[str]) -> int:
    if argv[:1] == ["coverage"] and len(argv) == 1:
        return coverage()
    if argv[:1] == ["mutate"]:
        return mutate(argv[1:])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
