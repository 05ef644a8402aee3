import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=lambda row: row[3])
def test_each_mutant_plants_at_one_place(row):
    # the table stays current: each old text still names exactly one place
    assert mutants.occurrences(row) == 1
