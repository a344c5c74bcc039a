"""Shared test wiring: keep the artifact store out of the repo tree.

Every :class:`~repro.engine.Engine` (and therefore every SceneBank and
CLI invocation under test) resolves its default store root through
``REPRO_CACHE_DIR``.  Point it at a session-scoped temporary directory
so tests are hermetic and never touch ``benchmarks/.cache/``.

A plain session fixture (not monkeypatch) because monkeypatch is
function-scoped and the bank fixtures in test_paperbench are not.

``scene_builds`` counts the scenes a test builds, over an emptied
process scene memo (``repro.engine.spec``).
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    if os.environ.get("REPRO_TEST_KEEP_CACHE_DIR"):
        # CI's degraded-mode job points REPRO_CACHE_DIR at a read-only
        # directory on purpose; honour it instead of isolating.
        yield
        return
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


class SceneBuilds(list):
    """The class names of the scenes built since the process's scene
    and placement memo was last emptied (:meth:`forget`)."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch
        self.forget()

    def forget(self) -> None:
        """Empty the memo and this count, as a fresh process starts."""
        from repro.engine import spec
        self._monkeypatch.setattr(spec, "_SCENE_MEMO", {})
        self._monkeypatch.setattr(spec, "_PLACEMENT_MEMO", {})
        self.clear()


@pytest.fixture
def scene_builds(monkeypatch):
    """Count scene builds in this process over an emptied scene memo
    (a forked pool worker counts into its own copy)."""
    from repro.scenes import ALL_SCENES

    built = SceneBuilds(monkeypatch)
    for cls in ALL_SCENES.values():
        def counted(self, *args, _build=cls.build, **kwargs):
            built.append(type(self).__name__)
            return _build(self, *args, **kwargs)
        monkeypatch.setattr(cls, "build", counted)
    return built
