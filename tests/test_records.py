"""Contract of the package's immutable value classes (core_num.Record).

For each class: construction by position, by keyword and with defaults;
refusal of assignment and deletion; each domain check in __post_init__;
field-wise equality, hashing, repr and copying; and the dict conversion.
Record is the package's only value class, and every one is listed here.
"""

import ast
import copy
import importlib
import math
import pathlib
import pickle
import pkgutil

import pytest

import pathamp
from pathamp import flavour, michelson, oracle, propagators, ray_optics, reflection, \
    refraction, wave_optics
from pathamp.core_num import CONSTANTS, DiscrepancyFlag, DomainError, Record

_GEOM = flavour.SlitGeometry(0.1, 1.0, 0.95e-3, 0.1e-3, 1e-3)
_BEAM = flavour.ElectronBeam(229.0, 1.374e-4)
_FLAG = DiscrepancyFlag("q", 1.0, 2.0, "note")

# class -> (valid positional arguments, {field: default} of the omitted fields)
CASES = {
    DiscrepancyFlag: (("q", 1.0, 2.0), {"note": ""}),
    flavour.SlitGeometry: ((0.1, 1.0, 0.95e-3, 0.1e-3, 1e-3), {}),
    flavour.PhotonSlitResult: ((_GEOM, 1.07e7, 5.4e-9, 2.9e-5, 1.8e-7, (_FLAG,)), {}),
    flavour.ElectronBeam: ((229.0, 1.374e-4), {}),
    flavour.ElectronSlitResult: ((_GEOM, _BEAM, 1e-5, 0.1, 0.2, ()), {}),
    flavour.KaonSystem: ((), {"mean_p": 194.0}),
    flavour.NeutrinoExperiment: (
        (CONSTANTS.m_pi, 2.5e-14, CONSTANTS.m_mu, 2e-3, math.pi / 4, 100.0),
        {"beta_energy_mev": None, "neutrino_p_mev": None}),
    flavour.NeutrinoOscillationResult: (tuple(float(i) for i in range(9)) + ((),), {}),
    flavour.ClassificationRow: (("kaon", False, False, False, False, True, "f", "1"), {}),
    flavour.EqualVelocityReport: ((7e-15, 6.3e-25, (_FLAG,)), {}),
    michelson.InterferometerSpec: ((0.5, 0.25, 1e-8, 1.07e7), {"phi_12": 0.0}),
    michelson.LifetimeAnalysis: ((2e-10, 2.1e-10, True), {}),
    michelson.SourceMotionCorrection: ((2.1e7, 1e-12, 1.0), {}),
    propagators.OnShellParticle: ((0.511, 0.5), {"width_mev": 0.0}),
    propagators.EmitterSpec: ((2.1, 0.0, 1e-7), {}),
    ray_optics.InterfaceGeometry: ((1.0, 1.5, 1.0, 1.0, 1.0), {}),
    ray_optics.StationaryPoint: ((0.6, 1e-15), {}),
    ray_optics.TrajectorySpread: ((6.3e-4, 6.3e-4, 7e-4), {}),
    reflection.ReflectionSetup: ((1.0, 1.5), {"t_hsm": 1.0}),
    reflection.FresnelComparison: ((0.0123, 0.04, 2.24, 0.69), {}),
    wave_optics.DiffractionGeometry: ((1.0, 2.0), {"hole_area": 1e-12}),
    oracle.OracleResult: ((1.0 + 2.0j, 0.1, 5), {}),
    refraction.RectangularBoundary: ((2.0, 3.0), {"y": 0.0, "z": 0.0}),
    refraction.CircularBoundary: ((1.0,), {"y": 0.0}),
    refraction.MediumSpec: ((1e25, 1e-10, 0.01), {}),
    refraction.AnnulmentReport: ((6e-4, 6.6e3, 2.1e6, 2e-12, 4e-5, (_FLAG,)), {}),
    refraction.EffectiveVelocity: ((2.9e8, 2.8e8, 0.01, "thick-block"), {}),
    refraction.SeriesValue: ((0.5 + 0.8j, 17), {}),
    refraction.MediumFactor: ((1.0 + 0.1j, 12, 1.0 + 0.1j), {}),
}

# the refusals of __post_init__: {id: (class, positional arguments, keyword
# arguments)}; a comment names the field broken when no keyword does.  The
# ids are written out, not numbered by position, so removing a row renames
# no other test.
REFUSED = {
    "SlitGeometry-0": (flavour.SlitGeometry, (0.1, 1.0, 0.95e-3, 0.1e-3, 0.0), {}),  # w
    "SlitGeometry-1": (flavour.SlitGeometry, (-0.1, 1.0, 0.95e-3, 0.1e-3, 1e-3), {}),  # l
    "ElectronBeam-2": (flavour.ElectronBeam, (0.0, 1e-4), {}),                  # mean_p
    "ElectronBeam-4": (flavour.ElectronBeam, (229.0, 0.0), {}),                 # sigma_p
    "NeutrinoExperiment-8": (flavour.NeutrinoExperiment,                        # dm2_ev2
                             (139.6, 2.5e-14, 105.7, 0.0, 0.5, 100.0), {}),
    "NeutrinoExperiment-9": (flavour.NeutrinoExperiment,                        # baseline
                             (139.6, 2.5e-14, 105.7, 2e-3, 0.5, 0.0), {}),
    "NeutrinoExperiment-10": (flavour.NeutrinoExperiment,                       # recoil_mass
                              (100.0, 2.5e-14, 120.0, 2e-3, 0.5, 10.0), {}),
    "NeutrinoExperiment-11": (flavour.NeutrinoExperiment,                       # neutrino_p_mev
                              (139.6, 2.5e-14, 105.7, 2e-3, 0.5, 10.0),
                              {"beta_energy_mev": 1.0}),
    "NeutrinoExperiment-37": (flavour.NeutrinoExperiment,                       # beta_energy_mev
                              (139.6, 2.5e-14, 105.7, 2e-3, 0.5, 10.0),
                              {"beta_energy_mev": 0.0, "neutrino_p_mev": 0.3}),
    "NeutrinoExperiment-38": (flavour.NeutrinoExperiment,                       # beta_energy_mev
                              (139.6, 2.5e-14, 105.7, 2e-3, 0.5, 10.0),
                              {"beta_energy_mev": -1.0, "neutrino_p_mev": 0.3}),
    "InterferometerSpec-13": (michelson.InterferometerSpec,                     # imbalance
                              (0.5, 0.0, 1e-8, 1e7), {}),
    "InterferometerSpec-14": (michelson.InterferometerSpec,                     # kappa
                              (0.5, 0.25, 1e-8, -1e7), {}),
    "InterferometerSpec-15": (michelson.InterferometerSpec,                     # arm_length
                              (0.0, 0.25, 1e-8, 1e7), {}),
    "InterferometerSpec-16": (michelson.InterferometerSpec,                     # tau_s
                              (0.5, 0.25, 0.0, 1e7), {}),
    "OnShellParticle-17": (propagators.OnShellParticle, (-1.0, 0.5), {}),       # mass_mev
    "OnShellParticle-18": (propagators.OnShellParticle, (1.0, 0.5), {"width_mev": -1.0}),
    "OnShellParticle-19": (propagators.OnShellParticle, (1.0, 1.5), {}),        # beta
    "OnShellParticle-20": (propagators.OnShellParticle, (1.0, 1.0), {}),        # beta
    "EmitterSpec-21": (propagators.EmitterSpec, (1.0, 2.0, 1e-7), {}),          # e_upper_ev
    "EmitterSpec-22": (propagators.EmitterSpec, (2.0, 1.0, -1e-7), {}),         # width_ev
    "InterfaceGeometry-23": (ray_optics.InterfaceGeometry,                      # n1
                             (0.9, 1.5, 1.0, 1.0, 1.0), {}),
    "InterfaceGeometry-24": (ray_optics.InterfaceGeometry,                      # d
                             (1.0, 1.5, 1.0, 0.0, 1.0), {}),
    "InterfaceGeometry-25": (ray_optics.InterfaceGeometry,                      # alpha
                             (1.0, 1.5, 0.0, 1.0, 1.0), {}),
    "ReflectionSetup-26": (reflection.ReflectionSetup, (1.0, 0.5), {}),         # n2
    "ReflectionSetup-27": (reflection.ReflectionSetup, (1.0, 1.5), {"t_hsm": 0.0}),
    "ReflectionSetup-28": (reflection.ReflectionSetup, (1.0, 1.5), {"t_hsm": 1.5}),
    "DiffractionGeometry-29": (wave_optics.DiffractionGeometry, (0.0, 2.0), {}),  # r
    "RectangularBoundary-31": (refraction.RectangularBoundary, (0.0, 3.0), {}),  # l_y
    "RectangularBoundary-32": (refraction.RectangularBoundary, (2.0, 3.0), {"z": 1.5}),
    "CircularBoundary-33": (refraction.CircularBoundary, (0.0,), {}),           # radius
    "CircularBoundary-34": (refraction.CircularBoundary, (1.0,), {"y": -1.0}),
    # NaN passes the sign and interior checks
    "RectangularBoundary-nan-side": (refraction.RectangularBoundary, (math.nan, 3.0), {}),
    "RectangularBoundary-inf-side": (refraction.RectangularBoundary, (2.0, math.inf), {}),
    "RectangularBoundary-nan-offset": (refraction.RectangularBoundary, (2.0, 3.0),
                                       {"z": math.nan}),
    "CircularBoundary-nan-radius": (refraction.CircularBoundary, (math.nan,), {}),
    "CircularBoundary-inf-radius": (refraction.CircularBoundary, (math.inf,), {"y": 1.0}),
    "CircularBoundary-nan-offset": (refraction.CircularBoundary, (1.0,), {"y": math.nan}),
    "MediumSpec-35": (refraction.MediumSpec, (0.0, 1e-10, 0.01), {}),           # density
    "MediumSpec-36": (refraction.MediumSpec, (1e25, 1e-10, -0.01), {}),         # thickness
}


@pytest.mark.parametrize("cls", list(CASES), ids=[cls.__name__ for cls in CASES])
class TestEveryRecord:
    def test_is_a_slotted_record(self, cls):
        assert issubclass(cls, Record)
        obj = cls(*CASES[cls][0])
        assert not hasattr(obj, "__dict__")
        assert not hasattr(cls, "__dataclass_fields__")

    def test_positional_keyword_and_default_construction(self, cls):
        args, defaults = CASES[cls]
        by_position = cls(*args)
        names = cls.__slots__
        assert len(names) == len(args) + len(defaults)
        for name, value in zip(names, args):
            assert getattr(by_position, name) is value
        for name, value in defaults.items():
            assert getattr(by_position, name) == value
        by_keyword = cls(**dict(zip(names, args)))
        assert by_keyword == by_position
        explicit = cls(*args, *defaults.values())
        assert explicit == by_position

    def test_refuses_assignment_and_deletion(self, cls):
        obj = cls(*CASES[cls][0])
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        name = cls.__slots__[0]
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before

    def test_refuses_bad_argument_lists(self, cls):
        args, defaults = CASES[cls]
        names = cls.__slots__
        with pytest.raises(TypeError):
            cls(*args, *defaults.values(), *[0.0] * (len(names) + 1))
        with pytest.raises(TypeError):
            cls(*args, not_a_field=1.0)
        if args:
            with pytest.raises(TypeError):
                cls(*args, **{names[0]: args[0]})
        required = len(names) - len(cls._defaults)
        if required:
            with pytest.raises(TypeError, match="missing required argument"):
                cls(*args[:required - 1])

    def test_equality_hash_repr_and_copies(self, cls):
        args, _ = CASES[cls]
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        assert a != object()
        assert hash(a) == hash(b)
        assert repr(a).startswith(f"{cls.__name__}({cls.__slots__[0]}=")
        assert copy.copy(a) == a
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a

    def test_as_dict_keys_are_the_fields_in_order(self, cls):
        keys = list(cls(*CASES[cls][0]).as_dict())
        assert keys == list(cls.__slots__)


@pytest.mark.parametrize("cls,args,kwargs", REFUSED.values(), ids=REFUSED)
def test_post_init_refusals_raise_domain_error(cls, args, kwargs):
    with pytest.raises(DomainError):
        cls(*args, **kwargs)


def test_unequal_fields_compare_unequal():
    assert DiscrepancyFlag("q", 1.0, 2.0) != DiscrepancyFlag("q", 1.0, 2.5)
    assert DiscrepancyFlag("q", 1.0, 2.0) != oracle.OracleResult("q", 1.0, 2.0)


# every constant, as float hex, in the order core_num defines them: the
# values the benchmark tables were computed with, derived ones last
_CONSTANTS_HEX = {
    "c": "0x1.1de784a000000p+28",
    "hbar_ev_s": "0x1.7b6ef0abcdc94p-51",
    "hbar_mev_s": "0x1.8ddd5df1eef73p-71",
    "h_ev_s": "0x1.2a019a830a613p-48",
    "k_boltzmann": "0x1.0b0e6d55e647cp-76",
    "m_electron": "0x1.05a1a78514a75p-1",
    "m_pi": "0x1.1723eea209aaap+7",
    "m_mu": "0x1.a6a22b7baecd0p+6",
    "m_k_charged": "0x1.edad4fdf3b646p+8",
    "tau_k_charged": "0x1.a98b9cb147247p-27",
    "m_k0_mean": "0x1.f1b3333333333p+8",
    "dm_ls": "0x1.eb2c80689b872p-39",
    "tau_ks": "0x1.89cd13e170979p-34",
    "tau_kl": "0x1.b776079df5f62p-25",
    "tau_pi": "0x1.bf3e58465b85ep-26",
    "lambda_na_d": "0x1.3c60c678d1a14p-21",
    "tau_na_annulment": "0x1.cfdb417c18a1bp-25",
    "tau_na_fringe": "0x1.7315cdfce0816p-28",
    "atomic_mass_unit": "0x1.071f778ed6aafp-89",
    "mass_na_u": "0x1.6fd6185002f7bp+4",
    "mass_h_u": "0x1.020c49ba5e354p+0",
    "hbarc_ev_m": "0x1.a7c1a79cc88ecp-23",
    "hc_ev_m": "0x1.4cd14ad96378bp-20",
    "mass_na_kg": "0x1.7a1229b0e73e1p-85",
    "mass_h_kg": "0x1.093a57bf15d34p-89",
}


def _constant_names():
    return [name for name in vars(type(CONSTANTS)) if not name.startswith("_")]


def test_constants_table_field_order_and_values():
    assert _constant_names() == list(_CONSTANTS_HEX)
    assert {name: getattr(CONSTANTS, name).hex() for name in _constant_names()} \
        == _CONSTANTS_HEX


def test_constants_are_a_read_only_namespace():
    assert not isinstance(CONSTANTS, Record)
    assert not hasattr(CONSTANTS, "__dict__")
    assert type(CONSTANTS).__slots__ == ()
    for name in ("validate", "notes", "ev_joule"):
        assert not hasattr(CONSTANTS, name)
    for name in _constant_names():
        before = getattr(CONSTANTS, name)
        with pytest.raises(AttributeError):
            setattr(CONSTANTS, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(CONSTANTS, name)
        assert getattr(CONSTANTS, name) is before
    with pytest.raises(AttributeError):
        CONSTANTS.not_a_constant = 1.0


def test_classification_row_as_dict_keeps_field_order():
    row = flavour.classify_experiment("kaon")
    assert list(row.as_dict()) == list(flavour.ClassificationRow.__slots__)


def test_as_dict_converts_nested_records_and_tuples():
    res = flavour.PhotonSlitResult(_GEOM, 1.07e7, 5.4e-9, 2.9e-5, 1.8e-7, (_FLAG,))
    assert res.as_dict() == {
        "geometry": {"l": 0.1, "r_prime": 1.0, "d": 0.95e-3, "h": 0.1e-3, "w": 1e-3},
        "kappa": 1.07e7, "tau_s": 5.4e-9, "fringe_spacing": 2.9e-5,
        "damping_per_fringe": 1.8e-7,
        "flags": [{"quantity": "q", "computed": 1.0, "reference": 2.0, "note": "note"}]}
    assert flavour.EqualVelocityReport(1.0, 2.0, ()).as_dict()["flags"] == []


def test_no_value_class_but_record():
    """No module imports typing or defines a tuple or NamedTuple class."""
    for path in sorted(pathlib.Path(pathamp.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "typing" not in [a.name.split(".")[0] for a in node.names], path
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "typing", path
            elif isinstance(node, ast.ClassDef):
                bases = [ast.unparse(b).split(".")[-1] for b in node.bases]
                assert not {"tuple", "NamedTuple"} & set(bases), (path, node.name)


def test_cases_cover_every_record_class():
    for info in pkgutil.walk_packages(pathamp.__path__, "pathamp."):
        importlib.import_module(info.name)
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("pathamp."):
                found.add(sub)
    assert found == set(CASES)
