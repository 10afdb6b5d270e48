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
it. Matching is again by name, so a field is read when any attribute of its
name is loaded.
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
}



def _reads(nodes) -> Counter:
    """Attribute loads and identifier-like string constants per name."""
    out = Counter()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                out[n.attr] += 1
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
                out[n.value] += 1
    return out


def unread_fields() -> list:
    """Public dataclass fields of src/aeris that live code never reads."""
    sources = [p for p in sorted((ROOT / "src" / "aeris").glob("*.py")) if p.name != "__init__.py"]
    sources += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    reads = _reads([ast.parse(p.read_text()) for p in sources])
    out = []
    for p in sorted((ROOT / "src" / "aeris").glob("*.py")):
        for cls in ast.parse(p.read_text()).body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            own = _reads([m for m in cls.body if isinstance(m, ast.FunctionDef)
                          and m.name == "__post_init__"])
            out += [f"{p.stem}.{cls.name}.{s.target.id}" for s in cls.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                    and not s.target.id.startswith("_")
                    and reads[s.target.id] == own[s.target.id]]
    return sorted(out)


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
