"""Every value a caller can set, pinned by name, so that a new knob (or a
removed one) shows up in the diff of this file.

The list is built mechanically:
- the defaulted parameters of each public function and method, and the
  defaulted fields of each public dataclass, defined in an ``oddtangle``
  module;
- every option of each ``oddtangle`` subcommand, and each of its choice
  values.
"""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import oddtangle
from oddtangle.cli import build_parser

LIBRARY = [
    "bench.timing_sweep(repetitions=)",
    "cli.main(argv=)",
    "convex_roof.convex_roof_tangle(restarts=)",
    "convex_roof.convex_roof_tangle(seed=)",
    "naive_tangle.find_noninvariance_witness(seed=)",
    "naive_tangle.tangle_i_naive(full_sum=)",
    "verify.CheckResult(detail=)",
    "verify.verify_all(seed=)",
]

CLI_OPTIONS = [
    "gen --type", "gen --n", "gen --seed", "gen --bits", "gen --out",
    "compute --state", "compute --format", "compute --out",
    "oracle --state", "oracle --qubit", "oracle --full-sum", "oracle --out",
    "tangle3 --state", "tangle3 --out",
    "residual --state", "residual --out",
    "slocc-check --n", "slocc-check --trials", "slocc-check --seed", "slocc-check --unitary",
    "slocc-check --out",
    "perm-check --state", "perm-check --n", "perm-check --seed", "perm-check --trials",
    "perm-check --out",
    "roof --density", "roof --restarts", "roof --seed", "roof --out",
    "bench --n-list", "bench --repetitions", "bench --out",
    "verify-all --seed", "verify-all --out",
]

CLI_CHOICES = [
    "gen --type ghz", "gen --type w", "gen --type random", "gen --type basis",
    "compute --format text", "compute --format csv",
]


def _defaulted(owner: str, fn) -> list[str]:
    params = inspect.signature(fn).parameters.items()
    return [f"{owner}({name}=)" for name, p in params if p.default is not p.empty]


def _library_settings() -> list[str]:
    found = []
    for info in pkgutil.iter_modules(oddtangle.__path__):
        module = importlib.import_module(f"oddtangle.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            owner = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                found += _defaulted(owner, obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found += [
                        f"{owner}({f.name}=)"
                        for f in dataclasses.fields(obj)
                        if not (f.default is f.default_factory is dataclasses.MISSING)
                    ]
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # static and class methods
                    # a dataclass's generated __init__ repeats its fields
                    public = not attr.startswith("_") or (
                        attr == "__init__" and not dataclasses.is_dataclass(obj)
                    )
                    if public and inspect.isfunction(member):
                        found += _defaulted(f"{owner}.{attr}", member)
    return sorted(found)


def _cli_settings() -> tuple[list[str], list[str]]:
    options, choices = [], []
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                flag = f"{command} {action.option_strings[0]}"
                options.append(flag)
                choices += [f"{flag} {c}" for c in action.choices or ()]
    return options, choices


def test_settable_values_are_pinned_by_name():
    assert _library_settings() == LIBRARY
    assert _cli_settings() == (CLI_OPTIONS, CLI_CHOICES)
