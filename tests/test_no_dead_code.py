"""No code in src/tracecoef that nothing runs.

Every top-level function and class of the package, and every method of its
classes, must be named somewhere in src/tracecoef (outside its own
definition and the re-exports of __init__) or in perfbench/.  A method
counts only as an attribute or a string, so a local variable of the same
name does not keep it.  A string constant counts in src/tracecoef only: the
functions that perfbench/ binds by their string names alone, to time them,
are not run by the program.  The few oracles that only the tests call are
listed below with their reason.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tracecoef"

# name -> why it stays although neither the program nor perfbench calls it
ORACLES = {
    "SymForm2.congruent_by": "g^t x g, with which the tests check that the form "
                             "classification is a congruence invariant",
    "centralizer_classify": "quadforms' table of the centralizers of the semisimple kinds "
                            "z and sigma1-sigma6, the input of coeff.descent_coeff; no "
                            "command exposes it yet",
    "descent_coeff": "coeff's one descent of the mixed classes sigma*u to the centralizer "
                     "of sigma; no command exposes it yet",
    "v_table": "the paper's chamber functions v_{sP0}(lambda, n, T), checked by the tests",
    "w_table": "one family member w_{sP0} from the rows _W_ROWS that the weight "
               "families read; the tests check its dependence on |nu| only",
    "theta": "one theta_{sP0} from the table _THETA that the weight families read",
    "l1_smoothed": "L(1, chi_D) by the incomplete-gamma split, independent of the class "
                   "numbers: the tests check the bulk class number formula against it",
    "hurwitz": "zeta(s, a) from lfun's Hurwitz jet, which the tests check against "
               "mpmath; perfbench names it only to time it",
    "stieltjes_gamma": "gamma_0 and gamma_1 from lfun's Dirichlet jet at 1, which the tests "
                       "check against mpmath; perfbench names it only to time it",
}


def _definitions():
    """(module path, qualified name, first line, last line) of every top-level
    function and class and every non-dunder method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((path, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out += [(path, f"{node.name}.{sub.name}", sub.lineno, sub.end_lineno)
                        for sub in node.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    return out


def _references():
    """name -> [(path, line, is_attribute_or_string)] over every name and
    attribute of src/tracecoef (but __init__) and perfbench/, and every string
    constant of src/tracecoef (but __init__)."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    out = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name, attr = node.id, False
            elif isinstance(node, ast.Attribute):
                name, attr = node.attr, True
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and path.parent == PACKAGE):
                name, attr = node.value, True
            else:
                continue
            out.setdefault(name, []).append((path, node.lineno, attr))
    return out


def _unused():
    refs = _references()
    unused = []
    for path, qual, first, last in _definitions():
        name, is_method = qual.rsplit(".", 1)[-1], "." in qual
        if not any((attr or not is_method) and not (p == path and first <= line <= last)
                   for p, line, attr in refs.get(name, ())):
            unused.append(qual)
    return unused


def test_every_definition_is_used_by_the_program_or_perfbench():
    unused = _unused()
    assert [q for q in unused if q not in ORACLES] == []
    # the list stays short: each oracle exists and is still unused
    assert sorted(set(ORACLES) - set(unused)) == []
