import importlib
import pkgutil

import lrpictures


def test_every_cache_is_bounded():
    # an unbounded lru_cache grows for the life of the process
    caches = []
    for info in pkgutil.iter_modules(lrpictures.__path__, "lrpictures."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                caches.append((f"{info.name}.{name}", value.cache_parameters()["maxsize"]))
    assert caches
    assert [name for name, maxsize in caches if maxsize is None] == []
