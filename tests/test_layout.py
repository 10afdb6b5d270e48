"""Guard against unreached public code in src/aeris.

Every public top-level function or class, and every public method, of an aeris
module must be referenced from live code: another line of src/aeris (not
`__init__.py`, whose re-exports do not count), `tests/test_acceptance.py` or
the benchmark in `perfbench/`. Unit tests do not count; a behaviour only they
need belongs in the test that needs it.

A reference is an identifier of the same name: a variable, an attribute, an
imported name, or a string constant such as an attribute the benchmark patches
by name. A method is reached only through an attribute (`obj.m`) or a string
constant, never through a bare name such as a parameter or a local variable.
References from inside an unreached definition do not count, so a helper whose
only callers are unreached is unreached too. Matching is by name, not by type,
so a method that shares its name with a live attribute would look reached: a
method name that several classes define (`to_json`, `to_json_dict`,
`transmit`) is reached when any of them is. A second check closes that gap for
dataclass fields, the attributes such a method would hide behind: no public
method of an aeris class may share its name with a dataclass field of any
aeris class.

A third check covers the fields themselves: every public field of an aeris
dataclass must be read by live code, as an attribute load (`obj.f`) or a
string constant, in the same places as above. A read inside the field's own
class's `__post_init__` does not count, since checking a value is not using
it. Several dataclasses share some field names (`positions`, `radio_map`,
`tx`, ...), so where annotations make the class of x known, a load `x.f`
counts only for the owners of `f` in that class's line of bases and
subclasses; elsewhere it counts for every owner of the name (see _FieldReads).
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

from aeris.harness import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]


def _names(nodes) -> Counter:
    """References per identifier; those through an attribute or a string
    constant count once more under the key `.name`, which a method needs."""
    out = Counter()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out[n.id] += 1
            elif isinstance(n, ast.alias):
                out[n.name.rpartition(".")[2]] += 1
            elif isinstance(n, ast.Attribute):
                out.update((n.attr, "." + n.attr))
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
                out.update((n.value, "." + n.value))
    return out


def _key(q: str) -> str:
    """The reference key that reaches definition q: `.m` for a method `C.m`."""
    _, dot, name = q.rpartition(".")
    return dot + name


def _units(path: Path) -> list:
    """(qualified name or None, references) per definition of a module; None
    marks module-level code. Methods are units of their own, apart from their
    class's body."""
    out, rest = [], []
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((stmt.name, _names([stmt])))
        elif isinstance(stmt, ast.ClassDef):
            methods = [m for m in stmt.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            body = [s for s in stmt.body if s not in methods]
            out.append((stmt.name, _names(stmt.bases + stmt.keywords + stmt.decorator_list + body)))
            out += [(f"{stmt.name}.{m.name}", _names([m])) for m in methods]
        else:
            rest.append(stmt)
    return out + [(None, _names(rest))]


def unreached() -> list:
    units = [u for p in sorted((ROOT / "src" / "aeris").glob("*.py")) if p.name != "__init__.py"
             for u in _units(p)]
    outside = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    units += [(None, _names([ast.parse(p.read_text())])) for p in outside]

    def public(q):
        return q is not None and not q.rpartition(".")[2].startswith("_")

    dead = set()
    while True:
        live = Counter()
        for q, refs in units:
            if q not in dead:
                live.update(refs)
        newly = {q for q, refs in units if public(q) and q not in dead
                 and live[_key(q)] == refs[_key(q)]}
        if not newly:
            return sorted(dead)
        dead |= newly


def test_every_public_name_is_reached():
    assert unreached() == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def field_method_collisions() -> list:
    """(name, field owners, method owners) for each public method name that is
    also a dataclass field name, over every class of src/aeris."""
    fields, methods = {}, {}
    for p in sorted((ROOT / "src" / "aeris").glob("*.py")):
        for cls in ast.parse(p.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for s in cls.body:
                if (_is_dataclass(cls) and isinstance(s, ast.AnnAssign)
                        and isinstance(s.target, ast.Name)):
                    fields.setdefault(s.target.id, []).append(f"{p.stem}.{cls.name}")
                elif (isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not s.name.startswith("_")):
                    methods.setdefault(s.name, []).append(f"{p.stem}.{cls.name}")
    return [(n, fields[n], methods[n]) for n in sorted(set(fields) & set(methods))]


def test_no_method_shares_a_field_name():
    assert field_method_collisions() == []


# fields that stay although nothing in the run reads them, each with its reason
UNREAD_FIELDS_KEPT = {
    # criterion 5 builds its map with build_map(train, residual_std_db=...) and
    # queries it through RadioMap.query, so the map's stated error figure stays
    # an input and query reports it
    "radio_env.LargeScaleStats.shadow_std_db",
    # acceptance criterion 7 builds a LocalCluster from four positional
    # arguments, the blocked pair among them; the cascade's cluster blocks only
    # the hop it reroutes, so reroute_local need not read it back
    "tactical.LocalCluster.blocked_pairs",
    # criterion 7's four positional arguments also fill the cluster's positions
    # and its map; the cascade passes an empty dict and the world's map, and
    # neither reroute_local nor the run reads them back
    "tactical.LocalCluster.positions",
    "tactical.LocalCluster.radio_map",
}


def _annotated(ann, classes) -> str | None:
    """The aeris class an annotation names (`X`, `mod.X` or "X"), else None."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    name = ann.attr if isinstance(ann, ast.Attribute) else getattr(ann, "id", None)
    return name if name in classes else None


def _one(kinds: set) -> str | None:
    return next(iter(kinds)) if len(kinds) == 1 else None


class _FieldReads(ast.NodeVisitor):
    """Counts each attribute load `x.f` of a dataclass field name f for the
    dataclasses that x can be. Where x's class is known, those are the owners
    of f among that class, its bases and its subclasses; elsewhere, every owner
    of f. A class is known for `self` in a method, an annotated parameter, a
    name whose every assignment has one known class, a constructor call, a
    call of a function or of a method name with one annotated return class,
    and an annotated field of a known class. An identifier-like string
    constant counts for every owner of its name."""

    def __init__(self, classes: dict, functions: dict):
        self.classes, self.functions = classes, functions
        methods, self.owners = {}, {}
        for name, info in classes.items():
            for m, ret in info["methods"].items():
                methods.setdefault(m, set()).add(ret)
            for f in info["fields"]:
                self.owners.setdefault(f, []).append(name)
        self.methods = {m: _one(kinds) for m, kinds in methods.items()}
        self.reads = Counter()
        self.scopes, self.cls, self.post_init_of = [], None, None

    def related(self, a: str, b: str) -> bool:
        def line(c):
            while c in self.classes:
                yield c
                c = self.classes[c]["base"]
        return a in line(b) or b in line(a)

    def type_of(self, e) -> str | None:
        if isinstance(e, ast.Name):
            return next((s[e.id] for s in reversed(self.scopes) if e.id in s), None)
        if isinstance(e, ast.Call):
            f = e.func
            if isinstance(f, ast.Name):
                return f.id if f.id in self.classes else self.functions.get(f.id)
            if isinstance(f, ast.Attribute):
                return f.attr if f.attr in self.classes else self.methods.get(f.attr)
        if isinstance(e, ast.Attribute):
            c = self.type_of(e.value)
            while c in self.classes and e.attr not in self.classes[c]["fields"]:
                c = self.classes[c]["base"]
            return self.classes[c]["fields"][e.attr] if c in self.classes else None
        return None

    def bind(self, target, kind) -> None:
        scope = self.scopes[-1]
        if isinstance(target, ast.Name):
            scope[target.id] = kind if scope.get(target.id, kind) == kind else None
        else:
            scope.update({n.id: None for n in ast.walk(target) if isinstance(n, ast.Name)})

    def visit_Module(self, node):
        self.scopes = [{}]
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node):
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        scope = {a.arg: _annotated(a.annotation, self.classes) for a in args}
        if self.cls is not None and args and not any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list):
            scope[args[0].arg] = self.cls
        outer = self.cls, self.post_init_of
        if node.name == "__post_init__":
            self.post_init_of = self.cls
        self.cls = None
        self.scopes.append(scope)
        self.generic_visit(node)
        self.scopes.pop()
        self.cls, self.post_init_of = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.scopes.append({a.arg: None for a in node.args.posonlyargs + node.args.args
                            + node.args.kwonlyargs})
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Assign(self, node):
        self.visit(node.value)
        for target in node.targets:
            if (isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    and len(target.elts) == len(node.value.elts)):
                for t, v in zip(target.elts, node.value.elts):
                    self.bind(t, self.type_of(v))
            else:
                self.bind(target, self.type_of(node.value))
            self.visit_stored(target)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)
        if self.cls is None:  # not a class body's field
            self.bind(node.target, _annotated(node.annotation, self.classes))
        self.visit_stored(node.target)

    def visit_stored(self, target):
        """Visit the loads inside an assignment's target, which bind has bound."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for t in target.elts:
                self.visit_stored(t)
        elif isinstance(target, ast.Starred):
            self.visit_stored(target.value)
        elif not isinstance(target, ast.Name):
            self.visit(target)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Store):  # a loop, with or comprehension target
            self.bind(node, None)

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if isinstance(node.ctx, ast.Load) and node.attr in self.owners:
            c = self.type_of(node.value)
            for owner in self.owners[node.attr]:
                if (c is None or self.related(owner, c)) and owner != self.post_init_of:
                    self.reads[owner, node.attr] += 1

    def visit_Constant(self, node):
        for owner in self.owners.get(node.value, []) if isinstance(node.value, str) else []:
            self.reads[owner, node.value] += 1


def unread_fields() -> list:
    """Public dataclass fields of src/aeris that live code never reads."""
    modules = [p for p in sorted((ROOT / "src" / "aeris").glob("*.py")) if p.name != "__init__.py"]
    sources = modules + [ROOT / "tests" / "test_acceptance.py",
                         *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {p: ast.parse(p.read_text()) for p in sources}
    classes, functions, public = {}, {}, []
    for p in modules:
        for stmt in trees[p].body:
            if isinstance(stmt, ast.FunctionDef):
                functions.setdefault(stmt.name, []).append(stmt.returns)
            elif isinstance(stmt, ast.ClassDef):
                own = [s for s in stmt.body if isinstance(s, ast.AnnAssign)
                       and isinstance(s.target, ast.Name)] if _is_dataclass(stmt) else []
                classes[stmt.name] = {
                    "base": next((b.id for b in stmt.bases if isinstance(b, ast.Name)), None),
                    "fields": {s.target.id: s.annotation for s in own},
                    "methods": {m.name: m.returns for m in stmt.body
                                if isinstance(m, ast.FunctionDef)}}
                public += [(p.stem, stmt.name, s.target.id) for s in own
                           if not s.target.id.startswith("_")]
    for info in classes.values():
        for part in ("fields", "methods"):
            info[part] = {k: _annotated(a, classes) for k, a in info[part].items()}
    visitor = _FieldReads(classes, {f: _one({_annotated(r, classes) for r in rets})
                                    for f, rets in functions.items()})
    for tree in trees.values():
        visitor.visit(tree)
    return sorted(f"{mod}.{cls}.{f}" for mod, cls, f in public if not visitor.reads[cls, f])


def test_every_dataclass_field_is_read():
    assert unread_fields() == sorted(UNREAD_FIELDS_KEPT)


def settable_numbers() -> list:
    """ScenarioConfig's numbers past the scene and trajectories, nested
    parameter fields flattened as `outer.inner`."""
    out = []
    for f in fields(ScenarioConfig)[2:]:
        out += ([f"{f.name}.{g.name}" for g in fields(f.default)] if is_dataclass(f.default)
                else [f.name])
    return out


def test_settable_numbers_are_those_callers_set():
    # each is set outside the unit tests: the grid, seed, load and short share
    # by the CLI (the load and share by the benchmark too), the sampling period
    # by acceptance criterion 8, and the region radius and blockage threshold
    # by tests/golden.py's cascade grid; with gen_city's building count these
    # are the scenario's 9 settable values, and any other value is a constant
    assert settable_numbers() == ["grid.dt", "grid.n_slots", "sampling_period_s",
                                  "region_radius_m", "blockage_threshold_db", "load_per_min",
                                  "frac_short_deadline", "seed"]
