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


def test_only_table4_shares_a_whole_algebra_certificate():
    # verify_table4 certifies each signature once and its cells read their
    # fingerprints off that certificate; even_subalgebra_problem only hands
    # it on to the oracle.  verify_core certifies too, but reads only the
    # verdict and hands the certificate to nothing.  Another sweep that
    # shared one would be a second sharing policy, with its own rule for
    # when a failing pass fails a cell
    allowed = {
        "certify": {("verify.py", "verify_table4"), ("verify.py", "verify_core")},
        "certificate": {
            ("verify.py", "verify_table4"),
            ("verify.py", "even_subalgebra_problem"),
        },
    }
    found = []
    for path in SOURCES:
        if path.name == "oracle.py":
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                uses = {name} | {k.arg for k in node.keywords}
                for what in uses & set(allowed):
                    if (path.name, owner) not in allowed[what]:
                        found.append(f"{path.name}:{node.lineno} {what} in {owner}")
    assert not found, f"a whole-algebra certificate outside verify_table4: {found}"


def test_only_the_seeded_cells_draw():
    # every blade law is decided exactly, and the wedge witness search
    # reads only basis pairs, so only verify.py imports random, and its
    # seeded rng may reach only the two cells that check core.bilinear on
    # random multivectors.  A sampled law would need a draw somewhere else
    draws = {"verify.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name not in draws
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "random" in {a.name for a in node.names} | {getattr(node, "module", None)}
    ]
    assert not found, f"random imported outside {sorted(draws)}: {found}"

    tree = ast.parse((SOURCES[0].parent / "verify.py").read_text())
    calls = [
        (getattr(owner, "name", "<module>"), node)
        for owner in tree.body
        for node in ast.walk(owner)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "random"
    ]
    assert [(name, node.func.attr) for name, node in calls] == [("verify_core", "Random")]

    core = next(n for n in tree.body if getattr(n, "name", None) == "verify_core")
    seeded = {
        t.id
        for n in ast.walk(core)
        if isinstance(n, ast.Assign) and any(n.value is node for _, node in calls)
        for t in n.targets
    }
    cells = {"involution_cell", "decomposition_cell"}
    allowed = {
        id(n)
        for cell in ast.walk(core)
        if isinstance(cell, ast.FunctionDef) and cell.name in cells
        for n in ast.walk(cell)
    }
    stray = [
        n.lineno
        for n in ast.walk(core)
        if isinstance(n, ast.Name) and n.id in seeded
        and isinstance(n.ctx, ast.Load) and id(n) not in allowed
    ]
    assert seeded and not stray, f"the seeded rng read outside {sorted(cells)}: lines {stray}"
