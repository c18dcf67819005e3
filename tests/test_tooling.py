"""Source-level rules for the package itself."""

import ast
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


def test_signs_come_only_from_the_kernel_functions():
    # every product and the oracle read their signs through the kernel
    # functions the tests cross-check (blade_mul, blade_mul_row, ...); a
    # module using the sign mask itself would compute signs of its own
    found = _named_outside("reorder_mask", "kernels.py")
    assert not found, f"reorder_mask named outside kernels.py: {found}"


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


def test_only_table4_shares_a_whole_algebra_certificate():
    # verify.whole_algebra is the one owner of a shared whole-algebra
    # certificate: it certifies a signature once and keeps only the last,
    # and run_suite, the one walk over signatures, owns the cache's
    # lifetime, clearing it once per run.  Its readers are verify_table1's
    # and verify_table4's cells, which read their fingerprints off it
    # (even_subalgebra_problem only hands it on to the oracle), and
    # verify_core's associativity and involutions cells, which read its
    # verdict and its commutation bicharacter.  A second owner would be a
    # second sharing policy, with its own rule for when a failing pass
    # fails a cell.  The one other sharing is exact and shares no
    # certificate: run_suite's one dict, which verify_sigchange's cells
    # hand verify_clifford_map, of the CheckResults that read ∨ alone,
    # keyed (n, neg ^ odd), so a failing pass fails every cell of that key
    # as it would fail alone.  The only other cache is definition_check's
    # expected rows, summed from the original metric's kernels and keyed
    # by the signature; each sigchange cell and core decomposition cell
    # compares its own rows with them
    allowed = {
        "certify": {("verify.py", "whole_algebra")},
        "certificate": {
            ("verify.py", "verify_table1.cell"),
            ("verify.py", "verify_table4.cell"),
            ("verify.py", "even_subalgebra_problem"),
        },
        "shared": {("verify.py", "verify_sigchange.cell")},
        "lru_cache": {("verify.py", "whole_algebra"), ("sigchange.py", "_definition_rows")},
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



def test_only_run_suite_clears_the_shared_certificate():
    # run_suite clears whole_algebra once per run, before its one walk
    # over the signatures; a suite clearing it too would drop the pass
    # that table1, table4 and core share within all
    clears = [
        (path.name, owner, getattr(node.func.value, "id", None))
        for path in SOURCES
        for owner, node in _calls(ast.parse(path.read_text(), filename=str(path)))
        if getattr(node.func, "attr", None) == "cache_clear"
    ]
    assert clears == [("verify.py", "run_suite", "whole_algebra")], clears

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
        if n in ("blade_mul", "blade_mul_row", "geometric_product")
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


def test_no_module_imports_random():
    # every law is decided exactly: the core suite's involutions and
    # decomposition cells read every blade pair and every (generator,
    # blade) pair, and the wedge witness search reads only basis pairs.  A
    # sampled law would need a draw, and this pin edited in the open
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "random" in {a.name for a in node.names} | {getattr(node, "module", None)}
    ]
    assert not found, f"random imported in the package: {found}"
