"""Every library definition and class member is reached from the CLI, and every export resolves.

The walk is syntactic: starting from ``cli.main`` (the console entry point)
and the module-level statements of ``cli.py``, a top-level definition is
reached when its name is read inside something already reached, directly or
through a ``from .module import name`` (at module level or inside a
function).  A class reached brings its bases, decorators and bare class-body
statements, not its members.  A member (method, property, NamedTuple field
or class attribute) of a reached class is reached when reached code reads
that attribute name (``x.name``, or ``getattr(x, "name")``), or when its
record goes into a report whole (``REPORTED_WHOLE``), which reads every
field through ``_asdict``.

Attribute reads are matched by name, not by type: a read of ``name`` on any
object reaches the member ``name`` of every reached class.  So this walk
cannot see a member whose name another class's member also carries and
reached code reads there; ``MukaiVector.is_zero`` went unseen this way,
because ``Wall`` reads ``NSClass.is_zero``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import strangedual
from strangedual import cli, fourier_mukai, hilbert, strata
from strangedual.duality import HypothesisReport

PACKAGE = Path(strangedual.__file__).parent
DATA = Path(__file__).parent / "data"

# definitions kept although no check reaches them, each with its reason
UNREACHED_BY_DESIGN: set[str] = set()

# records whose fields a check report carries whole, through cli.to_jsonable
# or a direct _asdict(); test_reported_whole_types_reach_asdict keeps this true
REPORTED_WHOLE = {
    "HypothesisReport",  # hypotheses-*: the report is the record
    "FMSuiteReport",  # fm-verify: the record beside the matrix
    "ExclusionReport",  # exclusions: {"report": record}
    "SuitabilityReport",  # suitability: the report is the record
    "CodimAudit",  # strata-audit: each wall entry holds the record
}

# members that no reached code reads, kept on purpose, each with its reason
UNREAD_BY_DESIGN = {
    "Stratum.dims": "tests compare it with the typed stack-dimension reference",
    "ChainAudit.pair_sum": "tests compare it with the typed pairing-sum chain",
    "MukaiVector.content": "the typed _stack_dim reference in the tests reads it",
}

# members exempt by kind: dunders run by the interpreter, and the NamedTuple
# hooks that _replace and friends call
NAMEDTUPLE_HOOKS = {"_make", "_replace", "_asdict", "_fields", "_field_defaults"}


def _exempt_by_kind(member: str) -> bool:
    return (member.startswith("__") and member.endswith("__")) or member in NAMEDTUPLE_HOOKS


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree):
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defs[node.target.id] = node
    return defs


def _members(cls: ast.ClassDef):
    """member name -> node for the methods, properties, fields and class attributes."""
    out = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out[node.target.id] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node
    return out


def _is_definition(node):
    return isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)
    )


def _relative_imports(tree):
    """name -> (module, name) for the module's top-level ``from .x import y``."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module or "__init__", alias.name)
    return out


def _attribute_reads(node):
    """The attribute names that ``node`` reads: ``x.name`` and ``getattr(x, "name")``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id in ("getattr", "hasattr")
            and len(sub.args) >= 2
            and isinstance(sub.args[1], ast.Constant)
        ):
            yield sub.args[1].value


def walk(modules):
    """Reach definitions and members from the CLI.

    Returns (unreached definitions as (module, name), unread members as
    (module, "Class.member"), every attribute name reached code reads).
    Members named in ``UNREAD_BY_DESIGN`` or exempt by kind count as reached.
    """
    defs = {name: _definitions(tree) for name, tree in modules.items()}
    imports = {name: _relative_imports(tree) for name, tree in modules.items()}
    members = {
        (module, name): _members(node)
        for module, names in defs.items()
        for name, node in names.items()
        if isinstance(node, ast.ClassDef)
    }
    reached, reached_members, attrs = set(), set(), set()
    pending = []

    def reach_member(module, cls, member):
        key = (module, f"{cls}.{member}")
        if key not in reached_members:
            reached_members.add(key)
            pending.append((module, members[module, cls][member]))

    def reach_members(module, cls):
        for member, node in members[module, cls].items():
            if (
                member in attrs
                or (cls in REPORTED_WHOLE and isinstance(node, ast.AnnAssign))
                or _exempt_by_kind(member)
                or f"{cls}.{member}" in UNREAD_BY_DESIGN
            ):
                reach_member(module, cls, member)

    def mark(module, name):
        module, name = imports[module].get(name, (module, name))
        if name in defs.get(module, {}) and (module, name) not in reached:
            reached.add((module, name))
            node = defs[module][name]
            if isinstance(node, ast.ClassDef):
                body = [n for n in node.body if n not in members[module, name].values()]
                for part in (*node.bases, *node.keywords, *node.decorator_list, *body):
                    pending.append((module, part))
                reach_members(module, name)
            else:
                pending.append((module, node))

    def visit(module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                mark(module, sub.id)
            elif isinstance(sub, ast.ImportFrom) and sub.level == 1:
                for alias in sub.names:
                    mark(sub.module or "__init__", alias.name)
        new = set(_attribute_reads(node)) - attrs
        if new:
            attrs.update(new)
            for module_cls in members:
                if module_cls in reached:
                    reach_members(*module_cls)

    mark("cli", "main")
    for node in modules["cli"].body:
        if not _is_definition(node):
            pending.append(("cli", node))
    while pending:
        visit(*pending.pop())
    unreached = {
        (module, name)
        for module, names in defs.items()
        if module != "__init__"
        for name in names
        if not name.startswith("__") and (module, name) not in reached
    }
    unread = {
        (module, f"{cls}.{member}")
        for (module, cls), names in members.items()
        if (module, cls) in reached
        for member in names
        if (module, f"{cls}.{member}") not in reached_members
    }
    return unreached, unread, attrs


def test_every_definition_is_reached_from_the_cli():
    unreached, _, _ = walk(_modules())
    assert {name for _, name in unreached} == UNREACHED_BY_DESIGN, sorted(unreached)


def test_every_member_of_a_reached_class_is_read():
    _, unread, _ = walk(_modules())
    assert unread == set(), sorted(unread)


def test_every_exemption_is_still_needed():
    modules = _modules()
    _, _, attrs = walk(modules)
    members = {
        f"{node.name}.{member}"
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for member in _members(node)
    }
    for entry, reason in UNREAD_BY_DESIGN.items():
        assert reason
        assert entry in members, entry
        assert entry.split(".")[1] not in attrs, f"{entry} is read; drop its exemption"


@pytest.fixture(scope="module")
def golden_specs():
    specs = []
    for name in ("acceptance_batch.yaml", "strata_batch.yaml"):
        specs.extend(cli.load_batch(str(DATA / name)))
    # neither golden batch runs suitability
    raw = {"params": {"v": "2:1,0:-2", "m": 5}, "checks": ["suitability"]}
    specs.extend(cli.normalize_instance(raw, 0))
    return specs


def test_reported_whole_types_reach_asdict(golden_specs, monkeypatch):
    types = {
        cls.__name__: cls
        for cls in (
            HypothesisReport,
            fourier_mukai.FMSuiteReport,
            hilbert.ExclusionReport,
            strata.SuitabilityReport,
            strata.CodimAudit,
        )
    }
    assert set(types) == REPORTED_WHOLE
    seen = set()
    for name, cls in types.items():
        original = cls._asdict

        def recorded(self, _name=name, _original=original):
            seen.add(_name)
            return _original(self)

        monkeypatch.setattr(cls, "_asdict", recorded)
    cli.run_batch(golden_specs)
    assert seen == REPORTED_WHOLE


def test_every_export_resolves():
    init = _modules()["__init__"]
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exported
    missing = [name for name in exported if not hasattr(strangedual, name)]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            module = strangedual
        else:
            module = importlib.import_module(f"strangedual.{path.stem}")
        names = getattr(module, "__all__", ())
        missing += [f"{path.stem}.{name}" for name in names if not hasattr(module, name)]
    assert missing == []
