"""What starting the program loads and runs: the lazy package exports, the
modules each subcommand imports, and the three process entries (the
opt-falsify script and both python -m forms) with their exit.

Most checks run in a fresh interpreter, since the test process has long
since imported every module."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from optfalsify import QuantumState
from optfalsify.serialize import state_to_json, write_json

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# The names the package __init__ imported eagerly before it resolved them
# lazily; every one must still import.
OLD_EXPORTS = {
    "ClassicalState", "classical_falsifier_exists", "embed_classical",
    "BaselineVerdict", "CampaignReport", "NaryGenerator", "classical_verdict",
    "coin_falsification_test", "count_classical_coin", "count_generator",
    "falsify_campaign", "make_coin", "make_nary",
    "DimensionMismatchError", "EigConvergenceError", "NotCompressibleError",
    "NotDeterministicError", "NotHermitianError", "NotPSDError",
    "NotTracePreservingError", "NumericalContaminationError", "OptFalsifyError",
    "OutOfRangeError", "PurificationMismatchError", "SchemaError",
    "UnfalsifiableHypothesisError",
    "FalsificationTest", "SupportHypothesis", "TestOutcome",
    "falsification_probability", "run_test", "support_falsification_test",
    "DEFAULT_RANK_TOL", "HermitianEig", "dagger", "doubleket_to_mat",
    "hermitian_eig", "kernel_projector", "mat_to_doubleket", "partial_trace",
    "support_projector", "tensor",
    "PropertyResult", "run_postulate_checks",
    "CanonicalForm", "CompressionResult", "Dilation", "DiscriminationResult",
    "Effect", "KrausChannel", "LocalFalsifier", "Purification", "QuantumState",
    "apply_channel", "born_probability", "canonical_form", "compress",
    "connecting_unitary", "dilate", "local_falsifier", "perfectly_discriminable",
    "purify",
}  # fmt: skip

LOADED_BY_EVERY_COMMAND = {"optfalsify", "cli", "errors", "linalg", "quantum", "serialize"}
COINS = {"coins", "classical", "falsification"}


def _python(code: str) -> str:
    """Standard output of code run by a fresh interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_old_export_imports():
    out = json.loads(
        _python(
            "import json, optfalsify\n"
            "names = optfalsify.__all__\n"
            "values = {n: getattr(optfalsify, n) for n in names}\n"
            "star = {}\n"
            "exec('from optfalsify import *', star)\n"
            "print(json.dumps({'all': names, 'star': sorted(set(star) - {'__builtins__'}),\n"
            "                  'resolved': all(v is not None for v in values.values())}))"
        )
    )
    assert set(out["all"]) == OLD_EXPORTS
    assert set(out["star"]) == OLD_EXPORTS
    assert out["resolved"]


def test_unknown_name_is_an_attribute_error():
    import optfalsify

    with pytest.raises(AttributeError, match="no_such_name"):
        optfalsify.no_such_name  # noqa: B018
    assert set(optfalsify.__all__) <= set(dir(optfalsify))


def test_submodules_are_attributes():
    # As when the package imported every submodule eagerly. A module that
    # none listed before it imports is reached through the package's
    # __getattr__; random_ops first, since only postulates imports it.
    out = _python(
        "import sys, optfalsify\n"
        "names = ['random_ops', 'postulates', 'coins', 'classical', 'errors',\n"
        "         'falsification', 'linalg', 'quantum']\n"
        "print(all(getattr(optfalsify, n) is sys.modules['optfalsify.' + n] for n in names))"
    )
    assert out.strip() == "True"


def test_package_import_loads_no_module():
    loaded = _python(
        "import sys, optfalsify\n"
        "print(sorted(m for m in sys.modules if m.startswith('optfalsify')))"
    )
    assert loaded.strip() == "['optfalsify']"


@pytest.fixture(scope="module")
def configs(tmp_path_factory) -> dict:
    work = tmp_path_factory.mktemp("configs")
    docs = {
        "state": state_to_json(QuantumState.maximally_mixed(2)),
        "coin": {
            "declared": {"p": 0.5, "phi": 0.0},
            "true_state": state_to_json(QuantumState.maximally_mixed(2)),
            "n_trials": 100,
            "seed": 1,
        },
        "sample": {"declared": {"probs": [0.2, 0.8]}, "n_trials": 100, "seed": 1},
        "baseline": {"declared_p": 0.5, "n_trials": 100, "seed": 1},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(work / f"{name}.json")
        write_json(paths[name], doc)
    return paths


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["purify", "--config", "@state"], set()),
        (["falsify-coin", "--config", "@coin"], COINS),
        (["sample", "--config", "@sample"], COINS),
        (["classical-baseline", "--config", "@baseline"], COINS),
        (
            ["check-postulates", "--dims", "2..2", "--seed", "1"],
            {"classical", "postulates", "random_ops"},
        ),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else "",
)
def test_modules_each_subcommand_loads(configs, argv, extra):
    argv = [configs[a[1:]] if a.startswith("@") else a for a in argv]
    out = _python(
        "import json, sys\n"
        "from optfalsify.cli import main\n"
        f"rc = main({argv!r})\n"
        "loaded = sorted(m.split('.')[-1] for m in sys.modules if m.startswith('optfalsify'))\n"
        "print(json.dumps([rc, loaded]))"
    )
    rc, loaded = json.loads(out.splitlines()[-1])
    assert rc == 0
    assert set(loaded) == LOADED_BY_EVERY_COMMAND | extra


@pytest.mark.parametrize("module", ["optfalsify", "optfalsify.cli"])
def test_module_entries_run_the_command(configs, module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "purify", "--config", configs["state"]],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["kind"] == "purification"


def test_main_does_not_freeze(configs, capsys):
    from optfalsify.cli import main

    before = gc.get_freeze_count()
    assert main(["purify", "--config", configs["state"]]) == 0
    assert main(["purify", "--config", "missing.json"]) == 2
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def _entries() -> dict:
    """Each process entry as the interpreter arguments that run it: the
    console script as the wrapper an installer writes for pyproject.toml's
    [project.scripts] value, and the two python -m forms."""
    text = (ROOT / "pyproject.toml").read_text()
    script = re.search(r'^opt-falsify = "(.+)"$', text, re.M).group(1)
    return {
        "opt-falsify": [
            "-c",
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"sys.exit(EntryPoint('opt-falsify', {script!r}, 'console_scripts').load()())",
        ],
        "optfalsify": ["-m", "optfalsify"],
        "optfalsify.cli": ["-m", "optfalsify.cli"],
    }


# An atexit hook, run after the entry returns or raises, reports whether it
# froze the collector's objects.
SITECUSTOMIZE = """import atexit, gc, sys
atexit.register(lambda: print(f"frozen at exit: {gc.get_freeze_count() > 0}", file=sys.stderr))
"""


@pytest.mark.parametrize("entry", ["opt-falsify", "optfalsify", "optfalsify.cli"])
@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["purify", "--config", "@state"], 0, "purified dim-2 state"),
        (
            ["check-postulates", "--dims", "2..2", "--seed", "1", "--inject-fault", "kraus-norm"],
            1,
            "15/16 properties passed",
        ),
        (["purify", "--config", "missing.json"], 2, "error: "),
        (["check-postulates", "--dims", "4..2"], 2, "error: argument --dims"),
    ],
    ids=["purify", "injected-fault", "missing-config", "bad-dims"],
)
def test_entries_freeze_at_exit(configs, tmp_path, entry, argv, code, err):
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
    argv = [configs[a[1:]] if a.startswith("@") else a for a in argv]
    proc = subprocess.run(
        [sys.executable, *_entries()[entry], *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), SRC])),
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == code, proc.stderr
    assert err in proc.stderr
    assert proc.stderr.endswith("frozen at exit: True\n")
