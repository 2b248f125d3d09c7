"""Determinism lint: no ambient randomness or wall-clock in the model.

Replayable schedule exploration requires every source of nondeterminism
under ``src/repro`` to be either the simulated clock or an explicitly
seeded RNG.  This AST lint enforces it:

* ``import time`` (and ``from time import ...``) only in the wall-clock
  benchmark modules, which measure the *host*, never the model;
* ``random`` may only be used to construct seeded ``random.Random``
  instances — the module-level functions share hidden global state;
* no ``from random import ...`` anywhere (it hides which RNG is used);
* no ``multiprocessing`` anywhere: parallel work belongs at the level of
  independent runs, never inside the kernel.
"""

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

#: Modules allowed to read the host clock: they benchmark the host
#: (wall-clock throughput gate, perf-regression stamps), not the model.
TIME_ALLOWED = {
    "bench/wallclock.py",
    "bench/regression.py",
}

#: Modules allowed to spawn processes: none.
MULTIPROCESSING_ALLOWED: set = set()


def _source_files():
    return sorted(SRC_ROOT.rglob("*.py"))


def _relative(path: Path) -> str:
    return path.relative_to(SRC_ROOT).as_posix()


class TestDeterminismLint:
    def test_wall_clock_only_in_host_benchmarks(self):
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                imports_time = (
                    isinstance(node, ast.Import)
                    and any(a.name.split(".")[0] == "time" for a in node.names)
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "time"
                )
                if imports_time and _relative(path) not in TIME_ALLOWED:
                    offenders.append(f"{_relative(path)}:{node.lineno}")
        assert not offenders, (
            "wall-clock import outside the host benchmarks "
            f"(simulated code must use env.now): {offenders}"
        )

    def test_no_from_random_imports(self):
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "random"
                ):
                    offenders.append(f"{_relative(path)}:{node.lineno}")
        assert not offenders, f"use seeded random.Random instances: {offenders}"

    def test_random_used_only_to_construct_seeded_rngs(self):
        """Every ``random.X`` attribute must be ``random.Random`` (the
        seeded generator class); module-level helpers like
        ``random.random()`` draw from hidden global state and would make
        runs irreproducible."""
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "random"
                    and node.attr != "Random"
                ):
                    offenders.append(
                        f"{_relative(path)}:{node.lineno} random.{node.attr}"
                    )
        assert not offenders, f"unseeded RNG use: {offenders}"

    def test_seeded_rng_constructions_carry_a_seed(self):
        """``random.Random()`` with no argument seeds from the OS — as
        nondeterministic as the module-level functions."""
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "random"
                    and node.func.attr == "Random"
                    and not node.args
                    and not node.keywords
                ):
                    offenders.append(f"{_relative(path)}:{node.lineno}")
        assert not offenders, f"unseeded random.Random(): {offenders}"

    def test_no_os_urandom(self):
        """``os.urandom`` is OS entropy: irreproducible by definition.
        Key material comes from the deterministic ``KeyStore`` secrets;
        anything else must use a seeded ``random.Random``."""
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr == "urandom"
                ):
                    offenders.append(f"{_relative(path)}:{node.lineno}")
        assert not offenders, f"OS entropy in the model: {offenders}"

    def test_no_multiprocessing_in_src(self):
        """No worker processes anywhere in the library — model code must
        never fork its own concurrency behind the kernel's back."""
        offenders = []
        for path in _source_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                imports_mp = (
                    isinstance(node, ast.Import)
                    and any(
                        a.name.split(".")[0] == "multiprocessing"
                        for a in node.names
                    )
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "multiprocessing"
                )
                if imports_mp and _relative(path) not in MULTIPROCESSING_ALLOWED:
                    offenders.append(f"{_relative(path)}:{node.lineno}")
        assert not offenders, (
            f"multiprocessing in the library: {offenders}"
        )
