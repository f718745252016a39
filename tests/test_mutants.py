"""The mutation gate's data stays in step with the code.

The gate itself runs as ``python tests/mutants.py``.
"""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_once_and_names_a_test(mutant):
    text = (mutants.ROOT / mutant.file).read_text()
    assert mutants.mutate(text, mutant) != text
    path, function = mutant.test.split("::")
    assert f"def {function}(" in (mutants.ROOT / path).read_text()


def test_old_text_not_found_exactly_once_exits_1(monkeypatch, capsys):
    mutant = mutants.MUTANTS[0]
    text = (mutants.ROOT / mutant.file).read_text()
    for old in ("no such text", "\n"):
        with pytest.raises(ValueError, match="not once"):
            mutants.mutate(text, mutant._replace(old=old))
    # main checks every mutant before it runs any test
    monkeypatch.setattr(mutants, "MUTANTS", (mutant._replace(old="no such text"),))
    assert mutants.main() == 1
    assert "occurs 0 times" in capsys.readouterr().err
