import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "uncovered.py"
_spec = importlib.util.spec_from_file_location("uncovered", SCRIPT)
uncovered = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(uncovered)

PLANTED = '''def called():
    return 1


def never_called():
    return 2
'''


def test_collector_reports_a_planted_function_that_never_runs(tmp_path):
    path = tmp_path.resolve() / "planted.py"
    path.write_text(PLANTED)
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    with uncovered.LineCollector(path.parent) as collector:
        spec.loader.exec_module(module)
        module.called()
    # never_called's body is reported; called's body and both defs ran
    assert collector.missed(path) == [6]


def test_each_known_text_names_one_place():
    for name, text in uncovered.KNOWN:
        assert (uncovered.PACKAGE / name).read_text().count(text) == 1, (name, text)
