import subprocess
import sys
from pathlib import Path

import pytest

import bifluid

IDENTITY_NAMES = ("APPENDIX_IDS", "ExtendedPotential", "IdentityReport",
                  "LagrangianQuantities", "ManufacturedFields",
                  "PotentialValidationError", "SampleWindow",
                  "appendix_term_residual", "convergence_order", "gibbs_residual",
                  "gibbs_terms", "lagrangian_quantities")


CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import bifluid, bifluid.cli
print(bifluid.__file__)
print("sympy" in sys.modules, "bifluid.csvout" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    bifluid.cli.main(["thermo-eval", "--k1", "1", "--k2", "0.5", "--cv1", "1.5",
                      "--cv2", "2.5", "--rho1", "1", "--rho2", "2", "--T1", "300",
                      "--T2", "320"])
print("sympy" in sys.modules, "bifluid.csvout" in sys.modules)
"""


def test_import_does_not_load_sympy():
    src = str(Path(bifluid.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", CHILD, src], capture_output=True,
                         text=True, timeout=60, check=True).stdout.splitlines()
    assert Path(out[0]).resolve() == Path(bifluid.__file__).resolve()
    # after import, and after thermo-eval: only simulate loads the CSV writer
    assert out[1:] == ["False False", "False False"]


def test_identity_names_resolve_lazily():
    from bifluid import gibbs_residual
    from bifluid import identity
    assert bifluid.ManufacturedFields is identity.ManufacturedFields
    assert gibbs_residual is identity.gibbs_residual
    for name in IDENTITY_NAMES:
        assert getattr(bifluid, name) is getattr(identity, name)
    assert set(identity.__all__) == set(IDENTITY_NAMES)
    assert set(IDENTITY_NAMES) <= set(dir(bifluid))
    assert {"GasPairModel", "run_sweep", "__version__"} <= set(dir(bifluid))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        bifluid.not_a_name
    with pytest.raises(ImportError):
        from bifluid import not_a_name  # noqa: F401
