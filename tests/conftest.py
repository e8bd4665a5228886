import csv
import json
import pathlib

import pytest

from pdethick import solver

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def oracle():
    """Frozen oracle values (independent series/quadrature, 25 digits).

    Regenerate with scripts/gen_bessel_oracle.py.
    """
    with open(DATA_DIR / "bessel_oracle.json") as handle:
        return json.load(handle)


def _csv_columns(path):
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)

    def parse(value):
        try:
            return float(value)
        except ValueError:
            return value

    return {name: [parse(row[i]) for row in rows] for i, name in enumerate(header)}


@pytest.fixture(scope="session")
def read_csv():
    """Read a CSV written by pdethick back into columns.

    Numeric fields are parsed as floats (including nan); everything else
    stays a string.
    """
    return _csv_columns


@pytest.fixture
def built_hierarchies(monkeypatch):
    """The list each multigrid hierarchy built during the test appends itself to."""
    built = []
    init = solver._Multigrid.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(solver._Multigrid, "__init__", counting)
    return built
