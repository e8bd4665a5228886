import ast
import pathlib

import pdethick


def _imported_public_names():
    tree = ast.parse(pathlib.Path(pdethick.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_has_no_duplicates():
    assert len(pdethick.__all__) == len(set(pdethick.__all__))


def test_every_entry_resolves():
    for name in pdethick.__all__:
        assert hasattr(pdethick, name), name


def test_all_is_exactly_the_imported_public_names():
    # a stale entry after a deletion, or an import left out of __all__, fails here
    assert set(pdethick.__all__) == _imported_public_names()
