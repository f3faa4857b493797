"""The program's output bytes, pinned.

``scripts/fingerprint.py`` digests every output the program writes (training
logs, checkpoints, the synth, export and eval files, sweep rows and the
gradient-check outcomes). ``fingerprint.json`` beside this file holds those
digests and the platform they were taken on. On that platform each digest
must match; elsewhere the bytes may differ in the last bit, so the tests skip
and name the fields that differ. The tests never rewrite the file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PIN_FILE = Path(__file__).with_name("fingerprint.json")
PINNED = json.loads(PIN_FILE.read_text())
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    here, pinned = module.platform_key(), PINNED["platform"]
    differ = [f"{k} {pinned.get(k)!r} here {here.get(k)!r}"
              for k in sorted(pinned.keys() | here.keys()) if pinned.get(k) != here.get(k)]
    if differ:
        pytest.skip("digests pinned on another platform: " + "; ".join(differ))
    return module


@pytest.fixture(scope="module")
def fingerprint(script):
    return script.digests()


def test_fingerprint_names_every_pinned_output(fingerprint):
    assert sorted(fingerprint) == sorted(PINNED["digests"])


@pytest.mark.parametrize("name", sorted(PINNED["digests"]))
def test_output_bytes_match_pinned_digest(fingerprint, name):
    assert fingerprint.get(name) == PINNED["digests"][name], (
        f"{name} moved; a change that moves bytes on purpose updates "
        f"tests/fingerprint.json and says why")


def test_script_prints_the_pin_file(script, fingerprint, monkeypatch, capsys):
    # so a change that moves bytes on purpose can regenerate the file
    monkeypatch.setattr(script, "digests", lambda: fingerprint)
    script.main()
    assert capsys.readouterr().out == PIN_FILE.read_text()
