"""The benchmark's inputs: the acceptance-suite configs, stored as JSON.

Each of the 16 `acceptance_suite()` descriptors is written once with
`descriptor_to_config` to `configs/<slug>.json`.  Every run loads them back
and checks that they still round-trip to the suite's descriptors, so the
inputs cannot drift from the program's own suite.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
GOLDEN_PATH = os.path.join(HERE, "goldens.json")


def slug(name: str) -> str:
    return name.replace(" ", "_")


def config_path(name: str) -> str:
    return os.path.join(CONFIG_DIR, slug(name) + ".json")


def config_text(config: dict) -> str:
    return json.dumps(config, sort_keys=True, indent=2) + "\n"


def load_configs() -> dict:
    """name -> config dict, for every fixture file."""
    out = {}
    for fname in sorted(os.listdir(CONFIG_DIR)):
        if fname.endswith(".json"):
            with open(os.path.join(CONFIG_DIR, fname)) as fh:
                out[fname[:-len(".json")].replace("_", " ")] = json.load(fh)
    return out


def load_suite() -> tuple[dict, dict]:
    """(name -> descriptor, name -> config), built from the fixture files."""
    from ears.core import descriptor_from_config

    configs = load_configs()
    return {name: descriptor_from_config(c) for name, c in configs.items()}, configs


def check_suite(descs: dict, configs: dict) -> None:
    """Raise AssertionError unless the fixtures are exactly the suite:
    same names, each config round-trips, each descriptor equals the one
    `acceptance_suite()` builds under that name."""
    from ears.core import descriptor_to_config
    from ears.examples import acceptance_suite

    suite = acceptance_suite()
    if set(suite) != set(descs):
        raise AssertionError("config fixtures and acceptance_suite() differ in names")
    for name, desc in suite.items():
        if descs[name] != desc:
            raise AssertionError(f"config {name!r} no longer builds its suite descriptor")
        if descriptor_to_config(descs[name]) != configs[name]:
            raise AssertionError(f"config {name!r} does not round-trip")


def load_goldens() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)
