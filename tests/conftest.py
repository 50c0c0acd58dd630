import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture()
def oracle_builds(monkeypatch):
    """Start with no kept oracle, and list each graph the oracle builder then builds for."""
    from cvrsim import roadnet

    built = []
    real = roadnet._build_oracle

    def counting(graph):
        built.append(graph)
        return real(graph)

    monkeypatch.setattr(roadnet, "_last_oracle", None)
    monkeypatch.setattr(roadnet, "_build_oracle", counting)
    return built
