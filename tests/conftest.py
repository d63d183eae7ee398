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


@pytest.fixture
def swap_one_member_under_fe(monkeypatch):
    """A switch that makes the sweeps' ``lr_families``, under FE on a shape
    where FE is not ME, swap the last member of every group for a tableau of
    9s: the family then differs from ME's in one member and has as many."""
    from lrpictures import sweeps
    from lrpictures.reading import far_eastern, middle_eastern
    from lrpictures.tableau import Tableau

    real = sweeps.lr_families

    def swapped(shape, start, order):
        families = real(shape, start, order)
        if order is not far_eastern(shape) or order is middle_eastern(shape):
            return families
        return {
            z: ts[:-1] + (Tableau(shape, [[9] * len(r) for r in ts[-1].rows]),) if ts else ts
            for z, ts in families.items()
        }

    return lambda: monkeypatch.setattr(sweeps, "lr_families", swapped)


def pytest_terminal_summary(terminalreporter):
    if not _criteria.lines:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _criteria.lines:
        status = "PASS" if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"{status}  {name}{suffix}")
