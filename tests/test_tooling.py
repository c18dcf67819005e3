"""Source-level rules for the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cliffsig

SOURCES = sorted(Path(cliffsig.__file__).parent.glob("*.py"))


def test_no_bare_assert_in_package():
    # assert statements vanish under python -O, so a mathematical check
    # written as one would silently stop checking
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert statements: {found}"


def test_no_floating_point_in_package():
    # every computation is exact: no float (or complex) literal and no use
    # of the name float, except the wall-clock seconds of a verify cell
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "verify.py":
            cell = next(
                n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Cell"
            )
            allowed = {
                id(n.annotation)
                for n in cell.body
                if isinstance(n, ast.AnnAssign) and n.target.id == "seconds"
            }
        for node in ast.walk(tree):
            literal = isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)
            )
            named = isinstance(node, ast.Name) and node.id == "float"
            if (literal or named) and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"floating point in the package: {found}"


def test_oracle_exceptions_are_caught_only_in_the_oracle():
    # a violation becomes a failing verdict in one place (oracle.oracle);
    # anywhere else, catching these would make a second policy
    oracle_errors = {"NotClosed", "NotIndependent", "NotTwisted"}
    found = []
    for path in SOURCES:
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {
                    n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node.type)
                    if isinstance(n, (ast.Name, ast.Attribute))
                }
                if names & oracle_errors:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"oracle exceptions caught outside oracle.py: {found}"


def _named_outside(name, *modules):
    """Every place outside ``modules`` where ``name`` is read, imported or
    looked up as an attribute."""
    return [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name not in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    ]


def test_associativity_is_checked_only_in_the_oracle():
    # oracle.py runs the one associativity pass, the bicharacter
    # certificate, and only its certify words a verdict on it; reading the
    # raw pass anywhere else would be a second policy and wording
    found = _named_outside("_read_bicharacter", "oracle.py")
    assert not found, f"_read_bicharacter named outside oracle.py: {found}"


def test_no_product_is_computed_from_the_bicharacter():
    # the certificate compares each product's sign with (-1)^(aᵀBb); a
    # product computed from B's tables would be certified against itself,
    # so only oracle.py builds or reads them
    names = ("_span_tables", "table_b", "table_sym")
    found = [(name, spot) for name in names for spot in _named_outside(name, "oracle.py")]
    assert not found, f"B's tables read outside oracle.py: {found}"


def test_expected_rows_of_the_certificate_read_no_product():
    # each row of the pass is clean when its neg equals the expected row
    # of aᵀB; a table built from the kernel's planes, a kernel or a row
    # function would compare a product with itself, so the one helper that
    # builds it reads the coordinates alone, and only the pass calls it
    from cliffsig import kernels

    tree = ast.parse((SOURCES[0].parent / "oracle.py").read_text())
    helper = next(top for top in tree.body if getattr(top, "name", None) == "_overlap_rows")
    named = {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(helper)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    kernel_names = {n for n in vars(kernels) if not n.startswith("__")}
    assert kernel_names >= {"blade_mul", "blade_mul_row", "columns", "row_sign"}
    found = sorted(
        n for n in named
        if n in kernel_names or n == "kernels" or "row_op" in n or n.endswith("_blade_op")
    )
    assert not found, f"the expected rows read {found}"
    callers = [
        (path.name, owner)
        for path in SOURCES
        for owner, node in _calls(ast.parse(path.read_text(), filename=str(path)))
        if getattr(node.func, "id", None) == "_overlap_rows"
    ]
    assert callers == [("oracle.py", "_read_bicharacter")], callers


def test_signs_come_only_from_the_kernel_functions():
    # every product and the oracle read their signs through the kernel
    # functions the tests cross-check (blade_mul, blade_mul_row, ...); a
    # module using the sign mask itself would compute signs of its own
    found = _named_outside("reorder_mask", "kernels.py")
    assert not found, f"reorder_mask named outside kernels.py: {found}"


def test_verify_reads_no_pair_kernel():
    # every sweep check of verify.py reads rows (neg, zero) of kernels'
    # row functions; a pair kernel there would be a second, pair-by-pair
    # protocol beside them
    others = [path.name for path in SOURCES if path.name != "verify.py"]
    found = [
        (name, spot)
        for name in ("blade_mul", "blade_wedge", "blade_left_contract", "blade_right_contract")
        for spot in _named_outside(name, *others)
    ]
    assert not found, f"verify.py names pair kernels: {found}"


def test_every_product_reads_its_row_function():
    # the six products evaluate through core.bilinear, which reads the row
    # function the sweeps certify; a pair sign function (``*_blade_op``) or
    # a seventh caller of bilinear would compute a product on a path no
    # sweep checks
    names = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for field in ("name", "id", "attr")
        if str(getattr(node, field, "")).endswith("_blade_op")
    ]
    assert not names, f"pair sign functions in the package: {names}"
    callers = sorted(
        (path.name, owner)
        for path in SOURCES
        for owner, node in _calls(ast.parse(path.read_text(), filename=str(path)))
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "bilinear"
    )
    assert callers == [
        ("core.py", "geometric_product"),
        ("core.py", "left_contraction"),
        ("core.py", "right_contraction"),
        ("core.py", "wedge"),
        ("sigchange.py", "vee_alpha"),
        ("sigchange.py", "vee_prime"),
    ], callers


def test_closed_forms_are_only_cross_checks():
    # every product the package evaluates, the CLI's included, is ∨ or ∨′
    # of a grading; the tilt and split closed forms are defined in
    # sigchange.py and exported only for the tests to check ∨ against.  A
    # module calling one would give a deformed product a second path
    names = ("tilt_product", "vee_alpha_via_split")
    found = [
        (name, spot)
        for name in names
        for spot in _named_outside(name, "sigchange.py", "__init__.py")
    ]
    assert not found, f"a closed form named outside its definition and export: {found}"


def test_oracle_is_called_only_by_the_two_fingerprint_checks():
    # the table cells and classify --oracle fingerprint through
    # verify.even_subalgebra_problem, and sigchange cells through
    # verify_clifford_map; a third caller would pick its own blade basis
    # and word its own verdict
    allowed = {
        ("verify.py", "even_subalgebra_problem"),
        ("sigchange.py", "verify_clifford_map"),
    }
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name == "oracle" and (path.name, owner) not in allowed:
                    found.append(f"{path.name}:{node.lineno} in {owner}")
    assert not found, f"oracle called outside the two fingerprint checks: {found}"


def _calls(tree):
    """(owner, call) for every call in a module, the owner being the chain
    of enclosing function or class names, e.g. ``verify_core.assoc_cell``,
    or ``<module>``."""

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield owner, child
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = child.name if owner == "<module>" else f"{owner}.{child.name}"
                yield from walk(child, name)
            else:
                yield from walk(child, owner)

    return walk(tree, "<module>")


def test_whole_algebra_is_the_one_shared_certificate():
    # verify.whole_algebra is the one owner of a shared whole-algebra
    # certificate: it certifies a signature once into run_suite's one dict
    # (core.kept), which drops it when the walk leaves the signature.  Its
    # readers are verify_table1's and verify_table4's cells, which read
    # their fingerprints off it (even_subalgebra_problem only hands it on
    # to the oracle), and verify_core's associativity and involutions
    # cells, which read its verdict and its commutation bicharacter.  A
    # second owner would be a second sharing policy, with its own rule for
    # when a failing pass fails a cell.  The other entries of that dict are
    # exact and share no certificate: the CheckResults that read ∨ alone,
    # which verify_sigchange's cells hand verify_clifford_map, keyed
    # (n, neg ^ odd), so a failing pass fails every cell of that key as it
    # would fail alone; and definition_check's expected rows, summed from
    # the original metric's kernels and kept per signature, with which each
    # sigchange cell and core decomposition cell compares its own rows
    allowed = {
        "certify": {("verify.py", "whole_algebra")},
        "certificate": {
            ("verify.py", "verify_table1.cell"),
            ("verify.py", "verify_table4.cell"),
            ("verify.py", "even_subalgebra_problem"),
        },
        "shared": {("verify.py", "verify_sigchange.cell")},
        "kept": {
            ("verify.py", "whole_algebra"),
            ("sigchange.py", "definition_check"),
            ("sigchange.py", "verify_clifford_map"),
        },
        "whole_algebra": {
            ("verify.py", "verify_table1.cell"),
            ("verify.py", "verify_table4.cell"),
            ("verify.py", "verify_core.assoc_cell"),
            ("verify.py", "verify_core.involution_cell"),
        },
    }
    found, seen = [], set()
    for path in SOURCES:
        if path.name == "oracle.py":
            continue
        for owner, node in _calls(ast.parse(path.read_text(), filename=str(path))):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            uses = {name} | {k.arg for k in node.keywords}
            for what in uses & set(allowed):
                seen.add((what, path.name, owner))
                if (path.name, owner) not in allowed[what]:
                    found.append(f"{path.name}:{node.lineno} {what} in {owner}")
    assert not found, f"a whole-algebra certificate outside verify.whole_algebra: {found}"
    assert seen == {(what, *spot) for what, spots in allowed.items() for spot in spots}, seen


def test_no_cache_outlives_a_run():
    # every result one check shares with another lives in a dict its caller
    # owns, run_suite's for a sweep, so no verdict can read a result made
    # under another run's kernels.  The one functools cache is
    # core.blade_order, a pure function of n; a new cache must be as pure
    # and listed here.  Nothing needs clearing, so nothing calls cache_clear
    caches = ("cache", "lru_cache", "cached_property")
    found, clears = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        decorated = {
            id(d): f"{path.name}:{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for d in node.decorator_list
            for d in (d, getattr(d, "func", d))
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names} & set(caches)
                found += [f"{path.name}:import {name}" for name in sorted(names)]
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in caches:
                found.append(decorated.get(id(node), f"{path.name}:{node.lineno}"))
            if isinstance(node, ast.Attribute) and node.attr == "cache_clear":
                clears.append(f"{path.name}:{node.lineno}")
    assert found == ["core.py:import cache", "core.py:blade_order"], found
    assert not clears, f"cache_clear in the package: {clears}"


def test_definition_rows_never_read_the_deformed_product():
    # definition_check compares each row of the product under test (∨ in
    # verify_clifford_map, the geometric product in the core suite's
    # decomposition cells) with rows summed from the original metric's
    # wedge and contraction kernels; rows made from a product kernel or
    # from ∨ would check the product against itself, and another caller
    # would read them without the grading's alpha
    helpers = ("_definition_rows", "_expected_rows")
    tree = ast.parse((SOURCES[0].parent / "sigchange.py").read_text())
    named = {
        n.id if isinstance(n, ast.Name) else n.attr
        for top in tree.body
        if getattr(top, "name", None) in helpers
        for n in ast.walk(top)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    products = sorted(
        n for n in named
        if n in ("blade_mul", "blade_mul_row", "row_sign", "geometric_product")
        or n.startswith("vee_")
        or n.endswith(("_row_op", "_blade_op"))
    )
    assert not products, f"the definition rows read {products}"
    assert {"blade_wedge", "blade_left_contract"} <= named

    callers = {
        name: [
            (path.name, getattr(top, "name", "<module>"))
            for path in SOURCES
            for top in ast.parse(path.read_text(), filename=str(path)).body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        ]
        for name in helpers
    }
    assert callers == {
        "_definition_rows": [("sigchange.py", "definition_check")],
        "_expected_rows": [("sigchange.py", "_definition_rows")],
    }, callers
    assert [spot for name in helpers for spot in _named_outside(name, "sigchange.py")] == []
    checks = sorted(
        (path.name, owner)
        for path in SOURCES
        for owner, node in _calls(ast.parse(path.read_text(), filename=str(path)))
        if getattr(node.func, "id", None) == "definition_check"
    )
    assert checks == [
        ("sigchange.py", "verify_clifford_map"),
        ("verify.py", "verify_core.decomposition_cell"),
    ], checks


def _importers(module):
    """Every place in the package that imports ``module`` or a name from it."""
    return [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and module in {a.name for a in node.names} | {getattr(node, "module", None)}
    ]


def test_no_module_imports_random():
    # every law is decided exactly: the core suite's involutions and
    # decomposition cells read every blade pair and every (generator,
    # blade) pair, and the wedge witness search reads only basis pairs.  A
    # sampled law would need a draw, and this pin edited in the open
    found = _importers("random")
    assert not found, f"random imported in the package: {found}"


def test_no_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, and
    # each dataclass compiles its generated methods at import: together
    # most of the package's import time, paid by every cliffsig process.
    # Value types are __slots__ classes and result records NamedTuples
    found = _importers("dataclasses")
    assert not found, f"dataclasses imported in the package: {found}"


def _newly_imported(module, names):
    """The modules among ``names`` that a fresh interpreter loads by
    importing ``module`` and had not loaded before it (say, from a site
    hook), sorted."""
    src = Path(cliffsig.__file__).resolve().parents[1]
    code = (
        f"import sys; before = set(sys.modules); import {module}; "
        f"print(sorted({set(names)!r} & (set(sys.modules) - before)))"
    )
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return out.stdout.strip()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # the same rule at run time, for the whole import chain of the command
    # line: a fresh interpreter importing cliffsig.cli loads neither module
    # unless it had already (say, from a site hook) before the import
    assert _newly_imported("cliffsig.cli", ["dataclasses", "inspect"]) == "[]"


def test_package_import_leaves_out_json():
    # only the command line renders JSON, and it imports json itself: the
    # package's own import chain loads no json
    assert _newly_imported("cliffsig", ["json"]) == "[]"


def test_value_classes_share_one_frozen_base():
    # immutability is written once, in core.Frozen: no other class refuses
    # (or allows) assignment and deletion on its own, and every __slots__
    # class that is not a NamedTuple record is a Frozen value, so it also
    # copies, pickles and refuses del like the others
    defines, unfrozen, bases = [], [], {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            where = f"{path.stem}.{node.name}"
            names = {b.id for b in node.bases if isinstance(b, ast.Name)}
            bases[where] = names
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in {"__setattr__", "__delattr__"}:
                    defines.append(f"{where}.{item.name}")
                slots = isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
                )
                if slots and ast.literal_eval(item.value) and not names & {"NamedTuple", "Frozen"}:
                    unfrozen.append(where)
    assert sorted(defines) == ["core.Frozen.__delattr__", "core.Frozen.__setattr__"], defines
    assert not unfrozen, f"__slots__ classes outside Frozen: {unfrozen}"
    values = sorted(w for w, names in bases.items() if "Frozen" in names)
    assert values == [
        "classify.AlgebraClass",
        "classify.SimpleComponent",
        "core.Multivector",
        "core.Signature",
        "grading.Z2Grading",
    ], values
