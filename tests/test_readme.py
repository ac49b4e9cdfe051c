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
