"""Every corpus job, run in this process through `cli.main`, exits,
prints to stderr and writes what tests/corpus.json pins, and raises no
warning."""

import pytest

import corpus


@pytest.mark.parametrize("name", list(corpus.BY_NAME))
def test_job_matches_table(name):
    assert corpus.check(name) == []


def test_table_pins_every_job_once():
    assert len(corpus.BY_NAME) == len(corpus.JOBS)
    assert sorted(corpus.table()["jobs"]) == sorted(corpus.BY_NAME)


def test_library_keys_name_collected_tests(request):
    # a library digest whose test was renamed, or whose case id changed,
    # would stay in the table unread
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    deselected = reporter.stats.get("deselected", []) if reporter else []
    ids = {item.nodeid.rpartition("tests/")[2]
           for item in [*request.session.items, *deselected]}
    library = corpus.table()["library"]
    if not {key.partition("::")[0] for key in library} <= {
            i.partition("::")[0] for i in ids}:
        pytest.skip("the library tests are not collected in this run")
    # a case that takes its digest as a parameter carries it in its id
    assert sorted(key for key, digest in library.items()
                  if key not in ids
                  and f"{key[:-1]}-{digest}]" not in ids) == []
