import pytest

from bathcool import (
    BeamGeometry,
    CavityDrive,
    Material,
    cantilever_frequency,
    clamping_Q,
    design_to_system,
    load_material,
    normal_mode_map,
    ted_critical_width,
    ted_quality_factor,
)
from bathcool.errors import RegimeError

from conftest import TWO_PI


@pytest.fixture
def sin():
    return load_material("silicon_nitride")


@pytest.fixture
def cavity():
    return CavityDrive(
        kappa=TWO_PI * 3e5, detuning=-TWO_PI * 1.1e6, g0=TWO_PI * 10.0, alpha=100.0
    )


class TestMaterials:
    def test_silicon_nitride_constants(self, sin):
        assert sin.youngs_modulus == pytest.approx(250e9)
        assert sin.density == pytest.approx(3100.0)
        assert sin.tec == pytest.approx(2.2e-6)
        assert sin.heat_capacity_vol == pytest.approx(2.2e6)
        assert sin.name == "silicon_nitride"

    def test_catalog(self):
        assert load_material("silicon").name == "silicon"
        assert load_material("silicon_nitride").name == "silicon_nitride"

    def test_unknown_material(self):
        with pytest.raises(KeyError, match="silicon_nitride"):
            load_material("unobtainium")

    def test_custom_material_validation(self):
        with pytest.raises(ValueError):
            Material(youngs_modulus=-1.0, density=1.0, tec=1.0, heat_capacity_vol=1.0)


class TestNormalModeMap:
    def test_simple_numbers(self):
        omega0, eps, lam = normal_mode_map(1.01, 0.99)
        assert omega0 == pytest.approx(1.0)
        assert eps == pytest.approx(0.01)
        assert lam == pytest.approx(0.01)

    def test_round_trip(self):
        omega0, eps = TWO_PI * 1.1e6, 3.2e-4
        wl, wr = omega0 * (1 + eps), omega0 * (1 - eps)
        omega0, eps, lam = normal_mode_map(wl, wr)
        assert omega0 == pytest.approx(TWO_PI * 1.1e6, rel=1e-12)
        assert eps == pytest.approx(3.2e-4, rel=1e-12)
        assert lam == pytest.approx(eps * omega0, rel=1e-12)

    def test_symmetric_arms(self):
        omega0, eps, lam = normal_mode_map(5.0, 5.0)
        assert (omega0, eps, lam) == (5.0, 0.0, 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_mode_map(0.0, 1.0)


class TestCantileverFrequency:
    def test_reference_geometry(self, sin):
        # 20 um x 0.3 um arm lands within 10% of the 1.102 MHz target
        got = cantilever_frequency(20e-6, 0.3e-6, sin)
        assert got / TWO_PI == pytest.approx(1.102e6, rel=0.10)
        assert got / TWO_PI == pytest.approx(1.088e6, rel=1e-3)

    def test_scaling_laws(self, sin):
        base = cantilever_frequency(20e-6, 0.3e-6, sin)
        assert cantilever_frequency(40e-6, 0.3e-6, sin) == pytest.approx(base / 4)
        assert cantilever_frequency(20e-6, 0.6e-6, sin) == pytest.approx(2 * base)
        stiff = Material(
            youngs_modulus=4 * sin.youngs_modulus,
            density=sin.density,
            tec=sin.tec,
            heat_capacity_vol=sin.heat_capacity_vol,
        )
        assert cantilever_frequency(20e-6, 0.3e-6, stiff) == pytest.approx(2 * base)

    def test_domain(self, sin):
        with pytest.raises(ValueError):
            cantilever_frequency(0.0, 1e-6, sin)


class TestClampingLoss:
    def test_calibrated_reference_point(self):
        # aspect ratio 66.7 gives Q ~= 7.87e3 (1.102 MHz / 140 Hz)
        q = clamping_Q(20e-6, 0.3e-6)
        assert q == pytest.approx(1.102e6 / 140.0, rel=1e-9)
        assert q == pytest.approx(7.87e3, rel=1e-3)

    def test_aspect_ratio_squared(self):
        assert clamping_Q(40e-6, 0.3e-6) == pytest.approx(
            4 * clamping_Q(20e-6, 0.3e-6), rel=1e-12
        )


class TestThermoelasticDamping:
    def test_critical_width_reference(self):
        assert ted_critical_width(TWO_PI * 1e6) == pytest.approx(6.546e-3, rel=1e-12)
        # thermal diffusion length scaling: 4x frequency halves h0
        assert ted_critical_width(TWO_PI * 4e6) == pytest.approx(
            6.546e-3 / 2.0, rel=1e-12
        )

    def test_thin_beam_quality_factor(self, sin):
        q = ted_quality_factor(sin, 300.0, 0.3e-6, TWO_PI * 1.102e6)
        assert q > 1e10  # far above the clamping-loss budget
        # quadratic in width, inverse in temperature
        assert ted_quality_factor(sin, 300.0, 0.6e-6, TWO_PI * 1.102e6) == (
            pytest.approx(q / 4.0, rel=1e-12)
        )
        assert ted_quality_factor(sin, 150.0, 0.3e-6, TWO_PI * 1.102e6) == (
            pytest.approx(2.0 * q, rel=1e-12)
        )

    def test_thick_beam_rejected(self, sin):
        with pytest.raises(RegimeError):
            ted_quality_factor(sin, 300.0, 1e-3, TWO_PI * 1e6)

    def test_domain(self, sin):
        with pytest.raises(ValueError):
            ted_quality_factor(sin, 0.0, 0.3e-6, TWO_PI * 1e6)
        with pytest.raises(ValueError):
            ted_critical_width(0.0)


class TestDesignToSystem:
    def test_composed_report_consistency(self, sin, cavity):
        geo = BeamGeometry(L_left=20.01e-6, L_right=19.99e-6, h=0.3e-6, w=0.3e-6)
        rep = design_to_system(geo, sin, 300.0, cavity)
        wl = cantilever_frequency(geo.L_left, geo.h, sin)
        wr = cantilever_frequency(geo.L_right, geo.h, sin)
        omega0, eps, lam = normal_mode_map(wl, wr)
        assert rep.system.mode_a.omega == pytest.approx(omega0, rel=1e-12)
        assert rep.epsilon == pytest.approx(eps, rel=1e-12)
        assert rep.budget.coupling == pytest.approx(lam, rel=1e-12)
        assert rep.budget.gamma_clamp == pytest.approx(
            omega0 / clamping_Q(geo.nominal_length, geo.h), rel=1e-12
        )
        assert rep.C_ab == pytest.approx(
            4 * lam**2 / (rep.budget.gamma_ted * rep.budget.gamma_clamp), rel=1e-12
        )
        assert rep.system.mass_a == pytest.approx(
            sin.density * (geo.L_left + geo.L_right) * geo.h * geo.w, rel=1e-12
        )
        assert rep.warnings == ()

    def test_asymmetry_sets_useful_cooperativity(self, sin, cavity):
        # per-mille arm asymmetry yields a deep-cooling C_ab
        geo = BeamGeometry(L_left=20.01e-6, L_right=19.99e-6, h=0.3e-6, w=0.3e-6)
        rep = design_to_system(geo, sin, 300.0, cavity)
        assert rep.C_ab > 1e3
        assert rep.budget.Q_ted > 1e10
        assert rep.budget.Q_clamp == pytest.approx(7.87e3, rel=1e-2)

    def test_symmetric_beam_warns(self, sin, cavity):
        geo = BeamGeometry(L_left=20e-6, L_right=20e-6, h=0.3e-6, w=0.3e-6)
        rep = design_to_system(geo, sin, 300.0, cavity)
        assert any("epsilon" in w for w in rep.warnings)
        assert rep.budget.coupling == 0.0

    def test_stubby_beam_warns(self, sin, cavity):
        geo = BeamGeometry(L_left=2e-6, L_right=2.002e-6, h=0.3e-6, w=0.3e-6)
        rep = design_to_system(geo, sin, 300.0, cavity)
        assert any("slender" in w for w in rep.warnings)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BeamGeometry(L_left=0.0, L_right=1e-6, h=1e-7, w=1e-7)
        geo = BeamGeometry(L_left=2e-6, L_right=1e-6, h=1e-7, w=1e-7)
        assert geo.asymmetry == pytest.approx(1.0 / 3.0)
        assert geo.nominal_length == pytest.approx(1.5e-6)
