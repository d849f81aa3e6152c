"""Consistency between the code's registries and their documentation.

* Every ``REPRO_*`` knob the code under ``src/repro`` reads has a row in
  a docs knob table, and no table row names a knob the code no longer
  reads (so a retired knob cannot linger in the docs).
* Every fault-injection site in ``FAULT_SITES`` has an
  ``inject("<site>", ...)`` call under ``src/repro``, and every site the
  code calls is listed (so a retired site cannot linger in the grammar).

A knob is "read" when its name appears as a whole string literal in the
source (``os.environ.get("REPRO_X")``, ``env_flag("REPRO_X", ...)``,
``ENV_VAR = "REPRO_X"``); docstrings that merely mention a knob do not
count.
"""

import ast
import pathlib
import re

from repro.resilience.fault_injection import FAULT_SITES

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
KNOB_DOCS = ("performance.md", "resilience.md", "service.md")

_KNOB = re.compile(r"REPRO_[A-Z0-9_]+")
_TABLE_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|")


def _source_trees():
    for path in sorted(SOURCE.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _knobs_read():
    found = {}
    for path, tree in _source_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _KNOB.fullmatch(node.value)
            ):
                found.setdefault(node.value, path.relative_to(ROOT))
    return found


def _knobs_documented():
    found = {}
    for name in KNOB_DOCS:
        doc = ROOT / "docs" / name
        for line in doc.read_text().splitlines():
            match = _TABLE_ROW.match(line)
            if match:
                found.setdefault(match.group(1), doc.relative_to(ROOT))
    return found


def _sites_injected():
    found = {}
    for path, tree in _source_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func, site = node.func, node.args[0]
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if (
                name == "inject"
                and isinstance(site, ast.Constant)
                and isinstance(site.value, str)
            ):
                found.setdefault(site.value, path.relative_to(ROOT))
    return found


def test_every_knob_read_is_documented():
    read, documented = _knobs_read(), _knobs_documented()
    missing = {
        knob: str(path) for knob, path in read.items() if knob not in documented
    }
    assert not missing, f"knobs without a docs table row: {missing}"


def test_every_documented_knob_is_read():
    read, documented = _knobs_read(), _knobs_documented()
    stale = {
        knob: str(path) for knob, path in documented.items() if knob not in read
    }
    assert not stale, f"docs rows for knobs the code does not read: {stale}"


def test_every_fault_site_is_wired():
    injected = _sites_injected()
    assert injected, "no inject() calls found"
    unwired = sorted(set(FAULT_SITES) - set(injected))
    assert not unwired, f"FAULT_SITES entries without an inject(): {unwired}"


def test_every_injected_site_is_listed():
    unlisted = {
        site: str(path)
        for site, path in _sites_injected().items()
        if site not in FAULT_SITES
    }
    assert not unlisted, f"inject() sites missing from FAULT_SITES: {unlisted}"
