#!/usr/bin/env bash
# Packaging smoke test of an installed bathcool, run in the current directory:
#   bash .github/packaging-smoke.sh
# BATHCOOL is the CLI command (default: bathcool).
#
# tier-1 imports from src/, so only an installed wheel shows a missing data
# file or a broken console script.  The checks, in order:
# - design runs: the wheel ships data/materials.json;
# - a full spectrum solves the joint rows a + a_dag and e_a (e_a_dag along);
# - a full sense reads the e_a row that the spectrum kept;
# - rwa spectrum and sense run the rotating-wave band: exit 0, empty stderr;
# - a full optimize runs the Lyapunov solve and its derivatives;
# - the same config respelled, with key: value lines, upper-case keys, an
#   indented ; comment and a [run] # note header, writes byte-identical
#   CSV and summary files;
# - a config with a byte that is not UTF-8: exit 1, one config_error line,
#   no stdout;
# - an optimize at --fidelity exact, a usage error: exit 1, one config_error
#   line, no stdout;
# - an optimize over C_OM in [5e3, 1e5], unstable at every scan point: exit 2,
#   one unstable_system line, worded by the real-form eigensolve, no stdout;
# - a full sweep over C_OM in [0.1, 1e5], 46 certified and 15 unstable
#   points: exit 0, "n_errors": 15;
# - the same range at 20 points per decade, 121 points on the pencil's modal
#   form, whose 30 unstable points alone have their drift matrices formed, for
#   the eigensolve that words them: exit 0, empty stderr, "n_errors": 30;
# - the same range at 50 points per decade, 301 points on the modal form, whose
#   74 points past the pole go from it to the eigensolve: exit 0, empty stderr,
#   "n_errors": 74;
# - a full sweep of 301 points at C_ab = 1e4 (lambda_hz = 1581.14), on the
#   pencil's modal form, whose refinement step passes the residual gate:
#   exit 0, empty stderr, "n_errors": 0;
# - a full spectrum at C_OM = 1e4 fails the complex eigensolve: exit 2, no
#   stdout, its message ending in +0j, as the real form words it;
# - a [cavity] with both alpha and pump_hz: exit 1, one config_error line,
#   no stdout;
# - a [sweep] of more than 100000 points: exit 1, one config_error line, no
#   stdout;
# - a [sweep] at 1.5 points per decade, not a whole number: exit 1, one
#   config_error line that names points_per_decade, no stdout;
# - a [design] whose 1e200 m arms overflow: exit 1, one config_error line, no
#   stdout;
# - a drive whose |alpha| g0 overflows (alpha = g0_hz = 1e200): exit 3, one
#   numerical_failure line and no numpy warning before it, no stdout;
# - a full spectrum at kappa_hz = 1e306, whose grid extent overflows: exit 3,
#   one numerical_failure line, no stdout;
# - an rwa sweep at lambda_hz = 1e160, where lambda^2 overflows: exit 0, 2 or
#   3, no traceback, and an empty stderr or one JSON line;
# - a spectrum at omega_a_hz = 1e-300, where hbar*omega/(kB*T) underflows:
#   exit 3, one numerical_failure line, no stdout;
# - an rwa sweep at gamma_b_hz = 1e-300, where (gamma_b + Gamma)^2 underflows:
#   exit 0 or 2, no FloatingPointError, and an empty stderr or one JSON line;
# - a sense at mass_a_kg = 1e-300, whose force baseline underflows to 0: exit 3,
#   one numerical_failure line that names the baseline;
# - an rwa sweep over C_OM in [0.01, 1e300], where (gamma_b + Gamma)^2
#   overflows: exit 0, empty stderr, "n_errors": 0;
# - the full sweep over that range, whose unstable drifts overflow: exit 0,
#   empty stderr;
# - a spectrum whose [cavity] gives only pump_hz: exit 0;
# - a full sweep's JSON table and summary parse with a strict parser: a
#   non-finite value is written as null;
# - a cavity spectrum (select = c) at zero detuning: exit 0 at both
#   fidelities, T_eff_K null, as a mode at zero frequency has no temperature;
# - a full spectrum at kappa_hz = 1e20, a cavity 1e14 times broader than the
#   mechanical lines: n_eff within 1e-3 of steady_state_occupation;
# - importing the CLI loads no scipy;
# - a full sweep_detuning of the README system at C_OM = sqrt(51), 301
#   points solved as one pencil in omega_b on its modal form: no point
#   error, every n_eff finite, and no scipy loaded;
# - a steady-state occupation and a line fit load no scipy, and the wheel
#   requires scipy only in its test extra.
set -euo pipefail
BATHCOOL=${BATHCOOL:-bathcool}
printf '%s\n' '[run]' 'task = design' '' '[design]' \
  'l_left_m = 20.01e-6' 'l_right_m = 19.99e-6' 'h_m = 0.3e-6' 'w_m = 0.3e-6' \
  'material = silicon_nitride' 'temperature_k = 300' > design.ini
$BATHCOOL design --config design.ini
printf '%s\n' '[run]' 'task = spectrum' '' '[system]' 'omega_a_hz = 1e6' \
  'gamma_a_hz = 1.0' 'omega_b_hz = 1e6' 'gamma_b_hz = 1e3' 'lambda_hz = 111.8' \
  'temperature_k = 300' 'mass_a_kg = 1e-12' '' '[cavity]' 'kappa_hz = 3e5' \
  'detuning_hz = -1e6' 'g0_hz = 10' > spectrum.ini
$BATHCOOL spectrum --config spectrum.ini --fidelity full
sed -e 's/^task = spectrum$/task = sense/' spectrum.ini > sense.ini
$BATHCOOL sense --config sense.ini --fidelity full
$BATHCOOL spectrum --config spectrum.ini --fidelity rwa > spectrum_rwa.out 2> spectrum_rwa.err
test ! -s spectrum_rwa.err
$BATHCOOL sense --config sense.ini --fidelity rwa > sense_rwa.out 2> sense_rwa.err
test ! -s sense_rwa.err
sed -e 's/^task = spectrum$/task = optimize/' spectrum.ini > optimize.ini
printf '%s\n' '' '[optimize]' 'c_om_min = 0.01' 'c_om_max = 1000' >> optimize.ini
$BATHCOOL optimize --config optimize.ini --fidelity full
sed -e 's/ = /: /' -e 's/^[a-z0-9_]*:/\U&/' -e 's/^\[run\]$/[run] # note/' \
  -e 's/^\[system\]$/&\n  ; modes a and b, in Hz/' optimize.ini > respelled.ini
grep -qx 'TASK: optimize' respelled.ini
grep -qx '\[run\] # note' respelled.ini
grep -qx '  ; modes a and b, in Hz' respelled.ini
$BATHCOOL optimize --config optimize.ini --fidelity full --out plain
$BATHCOOL optimize --config respelled.ini --fidelity full --out respelled
cmp plain.csv respelled.csv
cmp plain.summary.json respelled.summary.json
printf '[run]\ntask = optimize\n\xff\n' > latin.ini
code=0
$BATHCOOL optimize --config latin.ini > latin.out 2> latin.err || code=$?
test "$code" -eq 1
test ! -s latin.out
python -c "import json; lines = open('latin.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'config_error', lines"
code=0
$BATHCOOL optimize --config optimize.ini --fidelity exact > exact.out 2> exact.err || code=$?
test "$code" -eq 1
test ! -s exact.out
python -c "import json; lines = open('exact.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'config_error', lines"
sed -e 's/^task = spectrum$/task = optimize/' spectrum.ini > unstable.ini
printf '%s\n' '' '[optimize]' 'c_om_min = 5000' 'c_om_max = 100000' >> unstable.ini
code=0
$BATHCOOL optimize --config unstable.ini --fidelity full > unstable.out 2> unstable.err || code=$?
test "$code" -eq 2
test ! -s unstable.out
python -c "import json; lines = open('unstable.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'unstable_system', lines"
sed -e 's/^task = spectrum$/task = sweep/' spectrum.ini > mixed.ini
printf '%s\n' '' '[sweep]' 'c_om_min = 0.1' 'c_om_max = 100000' 'points_per_decade = 10' >> mixed.ini
code=0
$BATHCOOL sweep --config mixed.ini --fidelity full > mixed.out || code=$?
test "$code" -eq 0
grep -q '"n_errors": 15' mixed.out
sed -e 's/^points_per_decade = 10$/points_per_decade = 20/' mixed.ini > fine.ini
$BATHCOOL sweep --config fine.ini --fidelity full > fine.out 2> fine.err
test ! -s fine.err
grep -q '"n_errors": 30' fine.out
sed -e 's/^points_per_decade = 10$/points_per_decade = 50/' mixed.ini > wide.ini
$BATHCOOL sweep --config wide.ini --fidelity full > wide.out 2> wide.err
test ! -s wide.err
grep -q '"n_errors": 74' wide.out
sed -e 's/^task = spectrum$/task = sweep/' -e 's/^lambda_hz = 111.8$/lambda_hz = 1581.14/' spectrum.ini > modal.ini
$BATHCOOL sweep --config modal.ini --fidelity full > modal.out 2> modal.err
test ! -s modal.err
grep -q '"n_errors": 0' modal.out
cp spectrum.ini c1e4.ini
printf '%s\n' 'alpha = 86602.54' >> c1e4.ini
code=0
$BATHCOOL spectrum --config c1e4.ini --fidelity full > c1e4.out 2> c1e4.err || code=$?
test "$code" -eq 2
test ! -s c1e4.out
python -c "import json; lines = open('c1e4.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'unstable_system' and json.loads(lines[0])['message'].endswith('+0j'), lines"
cp c1e4.ini both.ini
printf '%s\n' 'pump_hz = 1e9' >> both.ini
code=0
$BATHCOOL spectrum --config both.ini > both.out 2> both.err || code=$?
test "$code" -eq 1
test ! -s both.out
python -c "import json; lines = open('both.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'config_error', lines"
sed -e 's/^task = spectrum$/task = sweep/' spectrum.ini > huge.ini
printf '%s\n' '' '[sweep]' 'points_per_decade = 1e17' >> huge.ini
code=0
$BATHCOOL sweep --config huge.ini --fidelity full > huge.out 2> huge.err || code=$?
test "$code" -eq 1
test ! -s huge.out
python -c "import json; lines = open('huge.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'config_error', lines"
sed -e 's/^task = spectrum$/task = sweep/' spectrum.ini > fraction.ini
printf '%s\n' '' '[sweep]' 'points_per_decade = 1.5' >> fraction.ini
code=0
$BATHCOOL sweep --config fraction.ini --fidelity full > fraction.out 2> fraction.err || code=$?
test "$code" -eq 1
test ! -s fraction.out
python -c "import json; lines = open('fraction.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'config_error' and 'points_per_decade' in json.loads(lines[0])['message'], lines"
sed -e 's/^l_left_m = .*/l_left_m = 1e200/' -e 's/^l_right_m = .*/l_right_m = 1e200/' design.ini > arms.ini
code=0
$BATHCOOL design --config arms.ini > arms.out 2> arms.err || code=$?
test "$code" -eq 1
test ! -s arms.out
python -c "import json; lines = open('arms.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'config_error', lines"
sed -e 's/^g0_hz = 10$/g0_hz = 1e200/' spectrum.ini > overflow.ini
printf '%s\n' 'alpha = 1e200' >> overflow.ini
code=0
$BATHCOOL spectrum --config overflow.ini --fidelity full > overflow.out 2> overflow.err || code=$?
test "$code" -eq 3
test ! -s overflow.out
python -c "import json; lines = open('overflow.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'numerical_failure', lines"
sed -e 's/^kappa_hz = 3e5$/kappa_hz = 1e306/' spectrum.ini > kappa.ini
code=0
$BATHCOOL spectrum --config kappa.ini --fidelity full > kappa.out 2> kappa.err || code=$?
test "$code" -eq 3
test ! -s kappa.out
python -c "import json; lines = open('kappa.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'numerical_failure', lines"
sed -e 's/^task = spectrum$/task = sweep/' -e 's/^lambda_hz = 111.8$/lambda_hz = 1e160/' spectrum.ini > lambda.ini
code=0
$BATHCOOL sweep --config lambda.ini --fidelity rwa > lambda.out 2> lambda.err || code=$?
test "$code" -eq 0 -o "$code" -eq 2 -o "$code" -eq 3
python -c "import json; lines = open('lambda.err').read().splitlines(); assert not lines or (len(lines) == 1 and set(json.loads(lines[0])) == {'error', 'message'}), lines"
sed -e 's/^omega_a_hz = 1e6$/omega_a_hz = 1e-300/' spectrum.ini > tiny_omega.ini
code=0
$BATHCOOL spectrum --config tiny_omega.ini > tiny_omega.out 2> tiny_omega.err || code=$?
test "$code" -eq 3
test ! -s tiny_omega.out
python -c "import json; lines = open('tiny_omega.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'numerical_failure', lines"
sed -e 's/^task = spectrum$/task = sweep/' -e 's/^gamma_b_hz = 1e3$/gamma_b_hz = 1e-300/' spectrum.ini > tiny_gamma_b.ini
code=0
$BATHCOOL sweep --config tiny_gamma_b.ini --fidelity rwa > tiny_gamma_b.out 2> tiny_gamma_b.err || code=$?
test "$code" -eq 0 -o "$code" -eq 2
! grep -q FloatingPointError tiny_gamma_b.err
python -c "import json; lines = open('tiny_gamma_b.err').read().splitlines(); assert not lines or (len(lines) == 1 and set(json.loads(lines[0])) == {'error', 'message'}), lines"
sed -e 's/^task = spectrum$/task = sense/' -e 's/^mass_a_kg = 1e-12$/mass_a_kg = 1e-300/' spectrum.ini > tiny_mass.ini
code=0
$BATHCOOL sense --config tiny_mass.ini > tiny_mass.out 2> tiny_mass.err || code=$?
test "$code" -eq 3
python -c "import json; lines = open('tiny_mass.err').read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])['error'] == 'numerical_failure' and 'force baseline' in json.loads(lines[0])['message'], lines"
sed -e 's/^task = spectrum$/task = sweep/' spectrum.ini > huge_gamma.ini
printf '%s\n' '' '[sweep]' 'c_om_min = 0.01' 'c_om_max = 1e300' >> huge_gamma.ini
$BATHCOOL sweep --config huge_gamma.ini --fidelity rwa > huge_gamma.out 2> huge_gamma.err
test ! -s huge_gamma.err
grep -q '"n_errors": 0' huge_gamma.out
$BATHCOOL sweep --config huge_gamma.ini --fidelity full > huge_gamma_full.out 2> huge_gamma_full.err
test ! -s huge_gamma_full.err
cp spectrum.ini pump.ini
printf '%s\n' 'pump_hz = 1e9' >> pump.ini
$BATHCOOL spectrum --config pump.ini --fidelity full > pump.out
sed -e 's/^task = spectrum$/task = sweep/' spectrum.ini > sweep.ini
$BATHCOOL sweep --config sweep.ini --fidelity full --out sweep
$BATHCOOL sweep --config sweep.ini --fidelity full --format json --out sweep_json
python -c "
import json
def refused(token):
    raise ValueError(token + ' is not JSON')
for path in ('sweep_json.json', 'sweep_json.summary.json'):
    json.loads(open(path).read(), parse_constant=refused)
"
sed -e 's/^detuning_hz = -1e6$/detuning_hz = 0/' -e '/^task = spectrum$/a select = c' spectrum.ini > cavity.ini
for fidelity in rwa full; do
  $BATHCOOL spectrum --config cavity.ini --fidelity "$fidelity" > cavity.out 2> cavity.err
  test ! -s cavity.err
  python -c "import json; summary = json.load(open('cavity.out')); assert summary['select'] == 'c' and summary['T_eff_K'] is None, summary"
done
sed -e 's/^kappa_hz = 3e5$/kappa_hz = 1e20/' spectrum.ini > broad.ini
$BATHCOOL spectrum --config broad.ini --fidelity full > broad.out
python - <<'EOF'
import json, math
import bathcool
tp = 2 * math.pi
spec = bathcool.SystemSpec(
    mode_a=bathcool.MechanicalMode(tp * 1e6, tp * 1.0, 300.0),
    mode_b=bathcool.MechanicalMode(tp * 1e6, tp * 1e3, 300.0),
    cavity=bathcool.CavityDrive(kappa=tp * 1e20, detuning=-tp * 1e6, g0=tp * 10.0, alpha=0.0),
    coupling=tp * 111.8,
)
exact = bathcool.steady_state_occupation(bathcool.build_full_system(spec), "a")
n = json.load(open("broad.out"))["n_eff"]
assert abs(n / exact - 1.0) <= 1e-3, (n, exact)
EOF
python -c "import sys, bathcool.cli; loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; assert not loaded, loaded"
python - <<'EOF'
import math, sys
import numpy as np
import bathcool
tp = 2 * math.pi
spec = bathcool.SystemSpec(
    mode_a=bathcool.MechanicalMode(tp * 1e6, tp * 1.0, 300.0),
    mode_b=bathcool.MechanicalMode(tp * 1e6, tp * 1e3, 300.0),
    cavity=bathcool.CavityDrive(kappa=tp * 3e5, detuning=-tp * 1e6, g0=tp * 10.0),
    coupling=tp * 111.8,
)
splittings = np.linspace(0.0, 40.0, 301) * spec.mode_b.gamma
result = bathcool.sweep_detuning(spec, splittings, fidelity="full", c_om=math.sqrt(51.0))
assert not any(result.errors) and np.isfinite(result.n_eff).all(), result.errors
loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']
assert not loaded, loaded
EOF
python - <<'EOF'
import math, sys
import bathcool
tp = 2 * math.pi
spec = bathcool.SystemSpec(
    mode_a=bathcool.MechanicalMode(tp * 1e6, tp * 1.0, 300.0),
    mode_b=bathcool.MechanicalMode(tp * 1e6, tp * 1e3, 300.0),
    cavity=bathcool.CavityDrive(kappa=tp * 3e5, detuning=-tp * 1e6, g0=tp * 10.0, alpha=2314.0),
    coupling=tp * 111.8,
)
n = bathcool.steady_state_occupation(bathcool.build_full_system(spec), "a")
assert abs(n - 1539060.98919747) <= 1e-9 * n, n
x = [0.01 * k for k in range(-500, 501)]
fit = bathcool.fit_lorentzian(x, [0.25 / (v * v + 0.25) + 0.01 for v in x], (-5.0, 5.0))
assert abs(fit.center) <= 1e-9 and abs(fit.fwhm - 1.0) <= 1e-9, fit
loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']
assert not loaded, loaded
from importlib.metadata import requires
needs_scipy = [r for r in requires("bathcool") if r.startswith("scipy")]
assert needs_scipy and all("extra ==" in r for r in needs_scipy), needs_scipy
EOF
