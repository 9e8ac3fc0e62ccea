import pytest


@pytest.fixture
def designs(monkeypatch):
    """The method of each design run, through the cli or the experiments namespace."""
    import csdesign.cli as cli_mod
    from csdesign import experiments

    calls, real = [], experiments.design_for_method

    def counting(method, *args, **kwargs):
        calls.append(method)
        return real(method, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "design_for_method", counting)
    monkeypatch.setattr(experiments, "design_for_method", counting)
    return calls
