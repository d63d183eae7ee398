import hypothesis
import pytest

hypothesis.settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("default")


class CriterionLog:
    """Collects one pass/fail line per acceptance criterion for the summary."""

    def __init__(self):
        self.lines = []

    def record(self, name: str, passed: bool, detail: str = ""):
        self.lines.append((name, passed, detail))


_criteria = CriterionLog()


@pytest.fixture(scope="session")
def criterion_log():
    return _criteria


@pytest.fixture
def refuse_three_cell_members(monkeypatch):
    """Make the sweeps' forward map refuse every 3-cell member, as it refuses
    a reading that does not grow its base into a partition."""
    from lrpictures import sweeps

    real = sweeps.tableau_to_picture

    def refusing(t, *args, **kw):
        if t.shape.size == 3:
            raise ValueError("reading word does not grow the base into a partition")
        return real(t, *args, **kw)

    monkeypatch.setattr(sweeps, "tableau_to_picture", refusing)


def pytest_terminal_summary(terminalreporter):
    if not _criteria.lines:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _criteria.lines:
        status = "PASS" if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"{status}  {name}{suffix}")
