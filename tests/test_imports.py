import subprocess
import sys
from pathlib import Path

import pytest

import bifluid
import bifluid.cli

IDENTITY_NAMES = ("APPENDIX_IDS", "ExtendedPotential", "IdentityReport",
                  "LagrangianQuantities", "ManufacturedFields",
                  "PotentialValidationError", "SampleWindow",
                  "appendix_term_residual", "convergence_order", "gibbs_residual",
                  "gibbs_terms", "lagrangian_quantities")


CONFIG = """\
[grid]
n = 16
length = 1.0

[gas1]
k = 1.0
cv = 1.5

[gas2]
k = 0.5
cv = 2.5

[closure]
mode = fixed-lambda
lambda = 0.0

[time]
dt = 1e-4
t_end = 0.0003

[init]
rho1_bg = 1.0
rho2_bg = 2.0
v1_bg = 0.0
v2_bg = 0.0
s1_bg = 0.0
s2_bg = 0.0

[sweep]
theta_min = 20.0
theta_max = 20.0
theta_count = 1
rho1_min = 1.0
rho1_max = 1.0
rho1_count = 1
rho2_min = 2.0
rho2_max = 2.0
rho2_count = 1
T_background = 315.38461538461536
"""

# Prints which of sympy, the identity verifier, the CSV writer and
# concurrent.futures are loaded: after import, then after each command other
# than verify-identity (the simulate run is small, so it writes inline).
CHILD = """
import contextlib, io, os, sys
sys.path.insert(0, sys.argv[1])
import bifluid, bifluid.cli
print(bifluid.__file__)
def loaded():
    print(*(m in sys.modules for m in ("sympy", "bifluid.identity", "bifluid.csvout",
                                       "concurrent.futures")))
loaded()
cfg, out = sys.argv[2], sys.argv[3]
for argv in (["thermo-eval", "--k1", "1", "--k2", "0.5", "--cv1", "1.5", "--cv2", "2.5",
              "--rho1", "1", "--rho2", "2", "--T1", "300", "--T2", "320"],
             ["sweep", "--config", cfg, "--out", os.path.join(out, "sweep.csv")],
             ["simulate", "--config", cfg, "--out", os.path.join(out, "run")]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert bifluid.cli.main(argv) == 0, argv
    loaded()
"""


def test_import_does_not_load_sympy(tmp_path):
    src = str(Path(bifluid.__file__).resolve().parents[1])
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = subprocess.run([sys.executable, "-c", CHILD, src, str(cfg), str(tmp_path)],
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout.splitlines()
    assert Path(out[0]).resolve() == Path(bifluid.__file__).resolve()
    # nothing loads sympy, the identity verifier or a thread pool (above
    # OVERLAP_MIN_ROWS, simulate forks a writer child); only simulate loads
    # the CSV writer
    assert out[1:] == ["False False False False", "False False False False",
                       "False False False False", "False False True False"]


# Runs verify-identity with sympy unimportable (a None entry in sys.modules
# makes `import sympy` raise ImportError).
NO_SYMPY_CHILD = """
import sys
sys.modules["sympy"] = None
sys.path.insert(0, sys.argv[1])
import bifluid.cli
sys.exit(bifluid.cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_verify_identity_runs_without_sympy(mode, capsys):
    argv = ["verify-identity", "--suite", "sinusoidal", "--mode", mode]
    assert bifluid.cli.main(argv) == 0
    expected = capsys.readouterr().out
    src = str(Path(bifluid.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", NO_SYMPY_CHILD, src, *argv],
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == expected


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
