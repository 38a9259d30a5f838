"""Angular distributions and thermalization diagnostics for compound
photoproton emission.

The package splits into four layers: exact angular-momentum recoupling
(``angmom``), the interference model for the emitted-proton angular
distribution (``xsection``), evaporation-spectrum and lifetime
diagnostics (``thermo``) and multi-start parameter extraction
(``fitkit``).  ``cli`` exposes all of them as the ``photoevap`` command.

``import photoevap`` loads no submodule (PEP 562).  On first access a
public name is looked up in the ``__all__`` of each module in turn and
then kept in the package namespace; submodules are left to the import
statement.
"""

from importlib import import_module

__version__ = "0.2.0"

# searched in this order, so that a name outside fitkit loads no numpy
_MODULES = ("errors", "angmom", "thermo", "xsection", "fitkit")
_SUBMODULES = (*_MODULES, "cli")


def _exports():
    for name in _MODULES:
        module = import_module(f"{__name__}.{name}")
        for export in module.__all__:
            yield export, module


def __getattr__(name):
    if name == "__all__":
        value = [export for export, _ in _exports()] + ["__version__"]
    elif name.startswith("_") or name in _SUBMODULES:
        # "from photoevap import thermo" lands here first; the import system then loads it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        module = next((module for export, module in _exports() if export == name), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
