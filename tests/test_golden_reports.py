"""Report bytes pinned by sha256.

Each experiment's default-grid report, and the verify-ext audit of two
explicit space files, must render to exactly these CSV and JSON bytes.  The
digests were recorded before the experiment loop was rewritten, so any
change to a row, a column, a summary key or the config echo fails here.
"""

import hashlib

import pytest

from polyslice.experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from polyslice.numeric import Vec
from polyslice.spaces import PolyhedralNormSpace, make_space_II, save_space

# experiment -> (sha256 of to_csv_text(), sha256 of to_json_text())
DEFAULT_GRID = {
    "thm1": ("46c9eee501fcf92e7f63af151863471fdf7eb70f4a6a7b9ca58dc7197664d547",
             "46399d0b8270439903644776dc6ca068366bcb864fc4f36522189a4d297dd822"),
    "prop2": ("64c03ea11d92ac88095c5f028249ca0bd53ceca2795b072d68203efd351c2a8c",
              "3ce55f2769b954f56b41c828e558743aa0625c79ae8d3cf14a6d1487c779ee56"),
    "prop3": ("244da99770f7eb4eff4c62dd9de63c36c1ad28b3ff4b98bd1209fe5b5c2ee884",
              "f20499fc8163e8930a05f197826c8f00092508c00c267930adef12b999a4bad8"),
    "verify-ext": ("d0ee2618e8cede026b9ab682df68505edf9b9c5b9c83ea1306daed5ed4a1141f",
                   "7e4563bca589ae5ac1e2839bab2cc1632c16729ed50b826874b86e90c030943c"),
    "sandwich": ("18289dc3488f71a83c4161560013b81088ae4f26838625b6f06a1579df25bc23",
                 "9b329ca80d1a76db0fe0fb8e78e8c7d928bdf00fed6f3fce676889809222ba10"),
}

# space file -> (sha256 of to_csv_text(), sha256 of to_json_text())
AUDITS = {
    "II.json": ("ca7f9a816e9725fb94baa9a6e5260cd783b1fa423fa055c35996e141c8671246",
                "557eebcef8ffec15f88f9bf995a0b154beaee2714a49e4a4df0d148835fe0726"),
    "custom.json": ("05baab244e425511e9730e522e5c408adc79e005142dd1b7f1a36fa383233b0d",
                    "70e3297a01c7dda42eb691f96470d28dd5028635bca67a5cf28bb4b5f6f1df2c"),
}


def digests(report):
    return tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                 for text in (report.to_csv_text(), report.to_json_text()))


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_default_grid_report_bytes(experiment):
    assert digests(run_experiment(ExperimentConfig(experiment=experiment))) == DEFAULT_GRID[experiment]


def audit_spaces():
    gens = sorted([Vec([1, 0]), Vec([-1, 0]), Vec([0, 1]), Vec([0, -1]),
                   Vec(["1/2", "1/2"]), Vec(["-1/2", "-1/2"])])
    return {"II.json": make_space_II(3, "1/10"),
            "custom.json": PolyhedralNormSpace(2, tuple(gens), "custom")}


@pytest.mark.parametrize("name", ["II.json", "custom.json"])
def test_explicit_space_audit_bytes(tmp_path, monkeypatch, name):
    """The config echo holds the space path, so the file is named relative
    to a fixed working directory."""
    monkeypatch.chdir(tmp_path)
    save_space(audit_spaces()[name], name)
    report = run_experiment(ExperimentConfig(experiment="verify-ext", space_path=name))
    assert digests(report) == AUDITS[name]
