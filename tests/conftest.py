import pytest
from hypothesis import settings

from dynkin.documents import document_text, parse_game
from dynkin.fixtures import example_document

# a failing example prints a @reproduce_failure blob that replays it; every
# other setting stays at its default
settings.register_profile("dynkin", print_blob=True)
settings.load_profile("dynkin")


@pytest.fixture(scope="session")
def deterministic_game():
    return parse_game(document_text(example_document("paper-5-1")))


@pytest.fixture(scope="session")
def walk_game():
    return parse_game(document_text(example_document("paper-5-3")))


@pytest.fixture(scope="session")
def pennies_game():
    return parse_game(
        document_text(example_document("counterexample-a")),
        enforce_assumption_a=False,
    )


@pytest.fixture(scope="session")
def one_sided_game():
    return parse_game(
        document_text(example_document("counterexample-b")),
        enforce_assumption_a=False,
    )
