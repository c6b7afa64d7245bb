import importlib
import inspect
import pkgutil

import rssinfo
from rssinfo.errors import DivergentIntegralError, InputError


def test_the_package_defines_two_failure_kinds_both_in_errors():
    # a bad input (exit 2) and a value that cannot be trusted (exit 3): no module adds a third
    defined = set()
    for info in pkgutil.iter_modules(rssinfo.__path__, "rssinfo."):
        module = importlib.import_module(info.name)
        defined |= {
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__.startswith("rssinfo")
        }
    assert defined == {InputError, DivergentIntegralError}
    assert {cls.__module__ for cls in defined} == {"rssinfo.errors"}
