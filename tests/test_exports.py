import inspect

import binmpec
import binmpec.adm


def test_all_names_resolve():
    missing = [name for name in binmpec.__all__ if not hasattr(binmpec, name)]
    assert missing == []
    assert len(set(binmpec.__all__)) == len(binmpec.__all__)


def test_adm_exports_only_its_solver():
    # adm's v-step is epm_v_update and its config is epm's PenaltyConfig,
    # so adm defines and exports its solver alone
    defined = {name for name, obj in vars(binmpec.adm).items()
               if getattr(obj, "__module__", None) == "binmpec.adm"}
    assert defined == {"solve_adm"}
    exported = {name for name in binmpec.__all__
                if getattr(getattr(binmpec, name), "__module__", None) == "binmpec.adm"}
    assert exported == defined


def test_test_helpers_are_not_library_code():
    # no src caller needed them; tests/reference.py keeps both as references
    assert not hasattr(binmpec.linalg, "quadratic_form")
    assert not hasattr(binmpec.QuadraticObjective, "grad")


def test_one_penalty_config():
    # epm and adm share PenaltyConfig; the two configs it replaced and
    # their shared check have no alias left
    for module in (binmpec, binmpec.epm, binmpec.adm):
        assert not hasattr(module, "EpmConfig") and not hasattr(module, "AdmConfig")
    assert not hasattr(binmpec.subsolver, "check_schedule")
    assert binmpec.PenaltyConfig is binmpec.epm.PenaltyConfig


def test_unused_names_removed():
    # no caller in the library, its command line or the benchmark used them
    for module, name in ((binmpec, "vector"), (binmpec.linalg, "vector"),
                         (binmpec, "BaselineMethod"), (binmpec.baselines, "BaselineMethod")):
        assert name not in binmpec.__all__ and not hasattr(module, name)


def test_one_scaling_rule_for_certificates():
    # SparseMatrix.scaled carries a certificate; the objective has no
    # scaling of its own, and the builders do not read DENSE_MAX
    assert not hasattr(binmpec.QuadraticObjective, "scaled")
    assert not hasattr(binmpec.QuadraticObjective, "_set_terms")
    assert not hasattr(binmpec.subsolver, "NormBound")
    assert not hasattr(binmpec.problems, "DENSE_MAX")


def test_projector_keeps_its_own_threshold():
    # a warm projector holds the last threshold itself; no object carries
    # it between calls, and the one-shot entries are always cold
    for module in (binmpec.projections, binmpec.problems):
        assert not hasattr(module, "WarmStart")
    assert not hasattr(binmpec.SolverView, "warm_projector")
    for fn in (binmpec.project_feasible, binmpec.project_capped_simplex):
        assert "warm" not in inspect.signature(fn).parameters
    assert inspect.signature(binmpec.projections.projector).parameters["warm"].default is False
