import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_every_public_name_resolves():
    """Each name in siegelz.__all__ is importable; the test-only helpers
    that src/ dropped stay out."""
    import siegelz

    for name in siegelz.__all__:
        assert getattr(siegelz, name) is not None, name
    dropped = {"legendre", "series_add", "characteristic_action", "gammaZ_tuple_predicate"}
    assert not dropped & set(siegelz.__all__)
    assert not any(hasattr(siegelz, name) for name in dropped)


_MISSING = object()


def _resolves(name, module):
    """Whether a dotted name resolves in the module's globals, else in the
    package, else names an importable module (such as numpy.ma), found
    without importing it."""
    import importlib.util

    import siegelz

    head, *rest = name.split(".")
    for scope in (vars(module), vars(siegelz)):
        obj = scope.get(head, _MISSING)
        for part in rest:
            obj = getattr(obj, part, _MISSING)
        if obj is not _MISSING:
            return True
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def test_layout_names_resolve():
    """Each backticked name in the Layout table that holds a dot, or holds
    `_` and starts lowercase or with `_` (not notation such as `F_Z`),
    resolves in its row's module or in the package, so no row names a helper
    that is gone."""
    import importlib
    import re

    layout = README.read_text().split("## Layout", 1)[1].split("\n## ", 1)[0]
    checked = []
    for row in layout.splitlines():
        match = re.match(r"\| `(siegelz\.\w+)` \|(.*)", row)
        if not match:
            continue
        module = importlib.import_module(match.group(1))
        for name in re.findall(r"`([^`]+)`", match.group(2)):
            if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", name) and (
                    "." in name or ("_" in name and not name[0].isupper())):
                checked.append((match.group(1), name))
                assert _resolves(name, module), checked[-1]
    assert ("siegelz.theta", "orbit_decomposition") in checked
