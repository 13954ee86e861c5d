import binmpec
import binmpec.adm


def test_all_names_resolve():
    missing = [name for name in binmpec.__all__ if not hasattr(binmpec, name)]
    assert missing == []
    assert len(set(binmpec.__all__)) == len(binmpec.__all__)


def test_adm_exports_only_its_solver():
    # adm's v-step is epm_v_update, so adm defines and exports its config
    # and solver alone
    defined = {name for name, obj in vars(binmpec.adm).items()
               if getattr(obj, "__module__", None) == "binmpec.adm"}
    assert defined == {"AdmConfig", "solve_adm"}
    exported = {name for name in binmpec.__all__
                if getattr(getattr(binmpec, name), "__module__", None) == "binmpec.adm"}
    assert exported == defined
