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


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=lambda row: row[3])
def test_each_mutant_plants_valid_python(row):
    # a row that plants a SyntaxError would stop pytest at import and read as
    # "broken" only in a full run of the script, so check it here
    path, old, new, _ = row
    assert new != old
    planted = (mutants.ROOT / path).read_text().replace(old, new)
    compile(planted, path, "exec")
