"""``contract.json`` and its one loader, :mod:`repro.lint.contract`.

A malformed contract must exit 2 with the file and the key path on
stderr — never a traceback, and never a clean exit over a checked region
that silently shrank.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.contract import ContractError, load_contract

REPO_ROOT = Path(__file__).resolve().parents[2]

VALID = {
    "version": 2,
    "purity": {"roots": ["pkg.app.r"], "quarantine": []},
    "fingerprint": {"classes": {}},
    "durability": {
        "roots": [],
        "commit_order": [
            {"first": "pkg.app.a", "then": "pkg.app.b", "reason": "order"}
        ],
    },
}


def _typo_key(data):
    data["purity"]["rots"] = data["purity"].pop("roots")


def _string_for_list(data):
    data["durability"]["roots"] = "pkg.app.r"


def _pair_without_first(data):
    del data["durability"]["commit_order"][0]["first"]


def _unknown_section(data):
    data["snapshot"] = {"modules": []}


def _wrong_version(data):
    data["version"] = 1


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "app.py").write_text(
        "# repro: module=pkg.app\n"
        + "".join(f"\n\ndef {name}():\n    return 1\n" for name in "rab")
    )
    return tmp_path


class TestMalformedContract:
    @pytest.mark.parametrize(
        "mutate,key_path",
        [
            pytest.param(_typo_key, "purity.rots", id="typo-key"),
            pytest.param(
                _string_for_list, "durability.roots", id="string-for-list"
            ),
            pytest.param(
                _pair_without_first,
                "durability.commit_order[0].first",
                id="pair-missing-first",
            ),
            pytest.param(_unknown_section, "snapshot", id="unknown-section"),
            pytest.param(_wrong_version, "version", id="wrong-version"),
            pytest.param(None, "cannot read", id="unreadable-file"),
        ],
    )
    def test_exits_two_naming_file_and_key(
        self, tree, capsys, mutate, key_path
    ):
        contract = tree / "contract.json"
        if mutate is not None:
            data = copy.deepcopy(VALID)
            mutate(data)
            contract.write_text(json.dumps(data))
        code = lint_main(
            [str(tree), "--whole-program", "--contract", str(contract)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{contract.as_posix()}: {key_path}" in captured.err
        assert "Traceback" not in captured.err

    def test_valid_contract_runs(self, tree, capsys):
        contract = tree / "contract.json"
        contract.write_text(json.dumps(VALID))
        code = lint_main(
            [str(tree), "--whole-program", "--contract", str(contract)]
        )
        assert code == 0, capsys.readouterr()

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "contract.json"
        path.write_text("{not json")
        with pytest.raises(ContractError, match="contract.json: invalid JSON"):
            load_contract(path)


def _replace_top_level(data):
    return ["version", 2]


def _missing_purity(data):
    del data["purity"]


def _string_version(data):
    data["version"] = "2"


def _string_for_quarantine(data):
    data["purity"]["quarantine"] = "pkg.obs"


def _number_for_root(data):
    data["purity"]["roots"] = [7]


def _class_without_fingerprint(data):
    data["fingerprint"]["classes"]["pkg.app.C"] = {"exclude": {}}


def _exclusion_without_reason(data):
    data["fingerprint"]["classes"]["pkg.app.C"] = {
        "fingerprint": ["pkg.app.C.fingerprint"],
        "exclude": {"verbose": None},
    }


def _pair_without_reason(data):
    del data["durability"]["commit_order"][0]["reason"]


def _pair_as_list(data):
    data["durability"]["commit_order"][0] = ["pkg.app.a", "pkg.app.b"]


def _durability_without_roots(data):
    del data["durability"]["roots"]


class TestLoaderKeyPaths:
    """Every required field, type and nesting level the loader checks
    names its own key path."""

    @pytest.mark.parametrize(
        "mutate,message",
        [
            pytest.param(
                _replace_top_level,
                "top level: expected an object, got list",
                id="top-level-list",
            ),
            pytest.param(
                _missing_purity,
                "purity: missing required key",
                id="missing-purity",
            ),
            pytest.param(
                _string_version,
                "version: unsupported version '2' (expected 2)",
                id="string-version",
            ),
            pytest.param(
                _string_for_quarantine,
                "purity.quarantine: expected a list, got str",
                id="string-for-quarantine",
            ),
            pytest.param(
                _number_for_root,
                "purity.roots[0]: expected a string, got int",
                id="number-for-root",
            ),
            pytest.param(
                _class_without_fingerprint,
                'fingerprint.classes["pkg.app.C"].fingerprint: '
                "missing required key",
                id="class-missing-fingerprint",
            ),
            pytest.param(
                _exclusion_without_reason,
                'fingerprint.classes["pkg.app.C"].exclude.verbose: '
                "expected a string, got NoneType",
                id="exclusion-missing-reason",
            ),
            pytest.param(
                _pair_without_reason,
                "durability.commit_order[0].reason: missing required key",
                id="pair-missing-reason",
            ),
            pytest.param(
                _pair_as_list,
                "durability.commit_order[0]: expected an object, got list",
                id="pair-as-list",
            ),
            pytest.param(
                _durability_without_roots,
                "durability.roots: missing required key",
                id="durability-missing-roots",
            ),
        ],
    )
    def test_names_key_path(self, tmp_path, mutate, message):
        data = copy.deepcopy(VALID)
        data = mutate(data) or data
        path = tmp_path / "contract.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ContractError) as excinfo:
            load_contract(path)
        assert str(excinfo.value) == f"{path.as_posix()}: {message}"

    def test_optional_sections_and_keys_default_off(self, tmp_path):
        path = tmp_path / "contract.json"
        path.write_text(
            json.dumps({"version": 2, "purity": {"roots": ["pkg.app.r"]}})
        )
        contract = load_contract(path)
        assert contract.purity.roots == ("pkg.app.r",)
        assert contract.purity.method_roots == ()
        assert contract.purity.quarantine == ()
        assert contract.fingerprint is None
        assert contract.durability is None


class TestSectionsPickFamilies:
    def test_fingerprint_section_turns_on_ckpt001(self, tmp_path, capsys):
        (tmp_path / "app.py").write_text(
            "# repro: module=pkg.app\n"
            "from dataclasses import dataclass\n"
            "\n"
            "\n"
            "@dataclass\n"
            "class C:\n"
            "    seed: int = 0\n"
            "    verbose: bool = False\n"
            "\n"
            "    def fingerprint(self):\n"
            "        return str(self.seed)\n"
        )
        contract = tmp_path / "contract.json"
        data = {"version": 2, "purity": {"roots": []}}
        contract.write_text(json.dumps(data))
        args = [str(tmp_path), "--whole-program", "--contract", str(contract)]
        assert lint_main(args) == 0, capsys.readouterr()
        capsys.readouterr()
        data["fingerprint"] = {
            "classes": {
                "pkg.app.C": {"fingerprint": ["pkg.app.C.fingerprint"]}
            }
        }
        contract.write_text(json.dumps(data))
        assert lint_main(args) == 1
        out = capsys.readouterr().out
        assert "CKPT001" in out and "'verbose'" in out


class TestCheckedInContract:
    def test_every_section_loads(self):
        contract = load_contract(REPO_ROOT / "contract.json")
        assert "repro.experiment.harness.run_session" in contract.purity.roots
        assert contract.fingerprint is not None
        assert "repro.fleet.runner.FleetConfig" in contract.fingerprint.classes
        durability = contract.durability
        assert durability is not None
        assert "repro.fleet.checkpoint.CheckpointManager.save" in (
            durability.roots
        )
        assert durability.atomic_helpers
        # DUR003 checks only the declared pairs: an emptied list would
        # leave it checking nothing.
        assert {(p.first, p.then) for p in durability.commit_order} == {
            (
                "repro.fleet.retrain.ModelRegistry._write_generation",
                "repro.fleet.retrain.ModelRegistry._write_manifest",
            ),
            (
                "repro.data.archive.ArchiveAppender.flush",
                "repro.fleet.checkpoint.CheckpointManager.save",
            ),
        }
        assert all(pair.reason.strip() for pair in durability.commit_order)
        assert contract.purity.source_path.endswith("contract.json")
