import dataclasses
import functools
import importlib.util
import json
import pathlib
import re

from qemlab.experiments import check_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_json_block_parses():
    # every config block parses and passes its scenario's checks
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        check_config(json.loads(block))


def _names(module):
    """Attributes of a module, with the members and dataclass fields of its classes."""
    names = set(dir(module))
    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            names.update(dir(obj))
            if dataclasses.is_dataclass(obj):
                names.update(f.name for f in dataclasses.fields(obj))
    return names


def _resolves(modules, ident):
    if ident.startswith("qemlab."):
        return importlib.util.find_spec(ident) is not None
    head, *rest = ident.split(".")
    for module in modules:
        if head in _names(module):
            try:
                functools.reduce(getattr, rest, getattr(module, head, None))
                return True
            except AttributeError:
                pass
    return False


def test_inside_table_names_what_its_modules_define():
    # each backticked identifier of a row names an attribute, a class member or
    # a dataclass field of that row's modules, so deleted names leave the docs too
    section = README.read_text().split("## What is inside", 1)[1].split("\n## ", 1)[0]
    rows = [ln for ln in section.splitlines() if ln.startswith("| `qemlab.")]
    assert rows
    for row in rows:
        mods, contents = row.strip("|").split("|", 1)
        modules = [importlib.import_module(m) for m in re.findall(r"`([\w.]+)`", mods)]
        assert modules, row
        missing = [ident for ident in re.findall(r"`([^`]+)`", contents)
                   if not _resolves(modules, ident)]
        assert not missing, (mods.strip(), missing)
