"""Config parsing, validation errors with line numbers, and round trips."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noiselab.config import (
    _RETIRED,
    _SECTION_CLASSES,
    _SECTION_KEYS,
    Config,
    ConfigError,
    SweepSettings,
    parse_config,
    parse_config_text,
    serialize_config,
)
from noiselab.datasets import DatasetSpec
from noiselab.denoiser import MlpArch
from noiselab.forward import NORMALIZE_MODES, CompoundSchedule, analytic_variance
from noiselab.metrics import METRIC_NAMES
from noiselab.sampler import STEP_KINDS, SamplerConfig
from noiselab.schedules import ScheduleSpec, format_schedule
from noiselab.training import LR_DECAY_KINDS, OPTIMIZER_KINDS, TrainConfig

FULL = """
# run settings for a small trained sweep
[dataset]
kind = mixture2d
n_train = 4096
seed = 3
modes = 8
radius = 1.0
std = 0.1

[compound]
schedule = linear
input_scale = 0.5
normalize = off

[train]
steps = 200
batch_size = 64
lr = 0.003
seed = 11
hidden = 32 32
time_embed = 8

[sampler]
steps = 50
seed = 21
step_kind = ddpm
schedule = cosine:0.2,1,1
guidance_weight = 0.0
signal_clamp = 4.0

[sweep]
schedules = linear sigmoid:-3,3,0.9
scales = 0.25 1.0
metric = sliced_wasserstein
oracle = false
base_seed = 40
n_eval = 500
normalize = off
"""


class TestParsing:
    def test_full_file(self):
        cfg = parse_config_text(FULL)
        assert cfg.dataset.kind == "mixture2d"
        assert cfg.dataset.modes == 8
        assert cfg.compound.input_scale == 0.5
        assert cfg.compound.schedule == ScheduleSpec.linear()
        assert cfg.train.steps == 200
        assert cfg.train.lr == 0.003
        assert cfg.train.hidden == (32, 32)
        assert cfg.train.time_embed == 8
        assert cfg.sampler.step_kind == "ddpm"
        assert cfg.sampler.schedule == ScheduleSpec.cosine(0.2, 1.0, 1.0)
        assert cfg.sampler.signal_clamp == 4.0
        assert cfg.sweep.schedules == ("linear", "sigmoid:-3,3,0.9")
        assert cfg.sweep.scales == (0.25, 1.0)

    def test_defaults_fill_in(self):
        cfg = parse_config_text(
            "[train]\nsteps = 10\nbatch_size = 4\nlr = 0.01\nseed = 0\n"
        )
        assert cfg.train.optimizer == "lamb"
        assert cfg.train.ema_decay == 0.9999
        assert cfg.train.hidden == (64, 64) and cfg.train.time_embed == 16
        assert cfg.train.self_cond is False
        assert cfg.dataset is None and cfg.sweep is None

    def test_table_one_style_schedule_string(self):
        cfg = parse_config_text("[compound]\nschedule = cosine:0.2,1,1\n")
        assert cfg.compound.schedule == ScheduleSpec.cosine(0.2, 1.0, 1.0)

    def test_sweep_schedule_strings_normalized(self):
        cfg = parse_config_text(
            "[sweep]\nschedules = cosine:0.20,1.0,1\nscales = 0.5\n"
            "metric = covariance_error\nbase_seed = 0\n"
        )
        assert cfg.sweep.schedules == ("cosine:0.2,1,1",)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("\n# intro\n[compound]\n# note\nschedule = linear\n\n")
        assert cfg.compound.schedule == ScheduleSpec.linear()

    def test_signal_clamp_none(self):
        cfg = parse_config_text("[sampler]\nsteps = 5\nseed = 0\nsignal_clamp = none\n")
        assert cfg.sampler.signal_clamp is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.txt")

    def test_parse_config_reads_file(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(FULL)
        assert parse_config(path) == parse_config_text(FULL)


class TestParseErrors:
    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*'foo'"):
            parse_config_text("[dataset]\nfoo = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1.*\[mystery\]"):
            parse_config_text("[mystery]\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 3.*duplicate|duplicate.*line 3"):
            parse_config_text("[compound]\nschedule = linear\nschedule = linear\n")

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_config_text("[compound]\nschedule = linear\n[compound]\n")

    def test_assignment_before_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("kind = mixture2d\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[dataset]\nkind mixture2d\n")

    def test_unterminated_header(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("[dataset\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="line 2.*n_train"):
            parse_config_text("[dataset]\nn_train = many\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="self_cond"):
            parse_config_text(
                "[train]\nsteps = 1\nbatch_size = 1\nlr = 0.1\nseed = 0\nself_cond = yes\n"
            )

    def test_bad_schedule_string(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[compound]\nschedule = cubic:1,2,3\n")

    def test_dataclass_errors_name_section(self):
        with pytest.raises(ConfigError, match=r"\[dataset\]"):
            parse_config_text("[dataset]\nkind = mixture2d\nn_train = 10\nseed = 0\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match=r"\[sampler\]"):
            parse_config_text("[sampler]\nseed = 0\n")

    @pytest.mark.parametrize(
        "kind, extras, foreign",
        [
            ("mixture2d", "modes = 2\nradius = 1.0\nstd = 0.2\n", "dim = 4"),
            ("mixture2d", "modes = 2\nradius = 1.0\nstd = 0.2\n", "upsample = 4"),
            ("gaussian_ar1", "dim = 4\nrho = 0.5\n", "modes = 3"),
            ("checkerboard", "", "rho = 0.5"),
            ("toy_image", "base_res = 4\nrho = 0.5\n", "dim = 4"),
        ],
    )
    def test_key_of_another_dataset_kind_rejected(self, kind, extras, foreign):
        # before, the key was stored and then dropped from config.txt
        text = f"[dataset]\nkind = {kind}\nn_train = 10\nseed = 0\n{extras}{foreign}\n"
        key = foreign.split()[0]
        with pytest.raises(ConfigError, match=rf"line {text.count(chr(10))}: key '{key}'.*{kind}"):
            parse_config_text(text)

    def test_net_only_train_section_rejected(self):
        # the net keys live in [train] too; they do not make TrainConfig optional
        with pytest.raises(ConfigError, match=r"\[train\].*TrainConfig.*'steps'"):
            parse_config_text("[train]\nhidden = 8 8\n")


AR1_DIM1 = "[dataset]\nkind = gaussian_ar1\nn_train = 8\nseed = 0\ndim = 1\nrho = 0.0\n"


class TestEmpiricalNormalizeNeedsTwoDims:
    def test_compound_default_rejected(self):
        with pytest.raises(ConfigError, match=r"\[compound\].*empirical.*data_dim 1"):
            parse_config_text(AR1_DIM1 + "[compound]\nschedule = linear\n")

    def test_sweep_empirical_rejected(self):
        with pytest.raises(ConfigError, match=r"\[sweep\].*empirical.*data_dim 1"):
            parse_config_text(
                AR1_DIM1 + "[sweep]\nschedules = linear\nscales = 0.5\n"
                "metric = covariance_error\nbase_seed = 0\nnormalize = empirical\n"
            )

    @pytest.mark.parametrize("dim, mode", [(1, "off"), (1, "analytic"), (2, "empirical")])
    def test_accepted(self, dim, mode):
        cfg = parse_config_text(
            AR1_DIM1.replace("dim = 1", f"dim = {dim}")
            + f"[compound]\nschedule = linear\nnormalize = {mode}\n"
        )
        assert cfg.compound.normalize == mode


class TestSweepSettingsValidation:
    def base(self, **kw):
        vals = dict(schedules=("linear",), scales=(0.5,), metric="covariance_error",
                    base_seed=0, oracle=True)
        vals.update(kw)
        return vals

    def test_empty_schedules_rejected_before_any_work(self):
        with pytest.raises(ValueError, match="schedules"):
            SweepSettings(**self.base(schedules=()))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(scales=()),
            dict(scales=(0.5, 0.5)),
            dict(scales=(0.0,)),
            dict(scales=(1.5,)),
            dict(schedules=("linear", "linear")),
            dict(schedules=("nope:1",)),
            dict(metric="fid"),
            dict(base_seed=-1),
            dict(n_eval=1),
            dict(normalize="sometimes"),
            dict(oracle=True, metric="sliced_wasserstein"),
            dict(oracle=True, normalize="analytic"),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            SweepSettings(**self.base(**kw))

    @pytest.mark.parametrize("b", [1e-9, 5e-324])
    def test_tiny_scale_rejected_under_analytic(self, b):
        with pytest.raises(ValueError, match=rf"^scales {b!r} is too small for "
                                             rf"normalize = analytic"):
            SweepSettings(**self.base(oracle=False, scales=(0.5, b), normalize="analytic"))
        SweepSettings(**self.base(oracle=False, scales=(0.5, b)))


class TestSeedRange:
    """Every seed key takes exactly the range Rng accepts, [0, 2**64)."""

    CONSTRUCTORS = {
        "train": lambda seed: TrainConfig(steps=1, batch_size=1, lr=0.1, seed=seed),
        "sampler": lambda seed: SamplerConfig(steps=1, seed=seed),
        "dataset": lambda seed: DatasetSpec(kind="checkerboard", n_train=1, seed=seed),
        "sweep": lambda seed: SweepSettings(schedules=("linear",), scales=(0.5,),
                                            metric="covariance_error", base_seed=seed),
    }

    @pytest.mark.parametrize("section", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**65])
    def test_out_of_range_rejected(self, section, seed):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            self.CONSTRUCTORS[section](seed)

    @pytest.mark.parametrize("section", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("seed", [1.5, 7.0, True, "7"])
    def test_non_integer_rejected(self, section, seed):
        with pytest.raises(TypeError, match="must be an int"):
            self.CONSTRUCTORS[section](seed)

    @pytest.mark.parametrize("section", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_endpoints_accepted(self, section, seed):
        self.CONSTRUCTORS[section](seed)

    @pytest.mark.parametrize("section, line", [("dataset", "seed = 3"), ("train", "seed = 11"),
                                               ("sampler", "seed = 21"),
                                               ("sweep", "base_seed = 40")])
    def test_run_file_seed_is_config_error(self, section, line):
        key = line.split()[0]
        text = FULL.replace(f"\n{line}\n", f"\n{key} = {2**64}\n")
        assert text != FULL
        with pytest.raises(ConfigError, match=rf"\[{section}\]: {key} must be in"):
            parse_config_text(text)


class TestSerialization:
    def test_round_trip_identity(self):
        cfg = parse_config_text(FULL)
        text = serialize_config(cfg)
        assert parse_config_text(text) == cfg

    def test_all_resolved_keys_present(self):
        cfg = parse_config_text(
            "[train]\nsteps = 10\nbatch_size = 4\nlr = 0.01\nseed = 0\n"
        )
        text = serialize_config(cfg)
        for line in ("optimizer = lamb", "ema_decay = 0.9999", "lr_decay_fraction = 0.7",
                     "hidden = 64 64", "classes = 0", "self_cond = false"):
            assert line in text

    def test_signal_clamp_none_round_trips(self):
        cfg = parse_config_text("[sampler]\nsteps = 5\nseed = 0\n")
        text = serialize_config(cfg)
        assert "signal_clamp = none" in text
        assert parse_config_text(text) == cfg

    def test_dataset_kinds_serialize_their_own_keys(self):
        cfg = parse_config_text(
            "[dataset]\nkind = toy_image\nn_train = 8\nseed = 1\n"
            "base_res = 2\nrho = 0.5\nupsample = 2\n"
        )
        text = serialize_config(cfg)
        assert "base_res = 2" in text and "upsample = 2" in text
        assert "modes" not in text
        assert parse_config_text(text) == cfg

    def test_python_built_dataset_round_trips(self):
        # before, a mixture2d spec built with dim = 7 serialized without dim,
        # and so parsed back to another Config
        with pytest.raises(ValueError, match="^dim does not apply to dataset kind mixture2d$"):
            DatasetSpec(kind="mixture2d", n_train=8, seed=0, modes=2, radius=1.0, std=0.2, dim=7)
        cfg = Config(dataset=DatasetSpec(kind="mixture2d", n_train=8, seed=0, modes=2,
                                         radius=1.0, std=0.2))
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_serialized_floats_reparse_exactly(self):
        cfg = parse_config_text("[compound]\nschedule = linear\ninput_scale = 0.1\n")
        again = parse_config_text(serialize_config(cfg))
        assert again.compound.input_scale == cfg.compound.input_scale


FULL_RESOLVED = """[dataset]
kind = mixture2d
n_train = 4096
seed = 3
modes = 8
radius = 1.0
std = 0.1

[compound]
schedule = linear
input_scale = 0.5
normalize = off

[train]
steps = 200
batch_size = 64
lr = 0.003
seed = 11
optimizer = lamb
lr_decay = cosine_first_fraction
lr_decay_fraction = 0.7
beta1 = 0.9
beta2 = 0.999
eps_opt = 1e-08
weight_decay = 0.01
ema_decay = 0.9999
self_cond_rate = 0.9
label_dropout = 0.0
log_every = 100
hidden = 32 32
time_embed = 8
classes = 0
self_cond = false

[sampler]
steps = 50
seed = 21
step_kind = ddpm
schedule = cosine:0.2,1,1
guidance_weight = 0.0
signal_clamp = 4.0

[sweep]
schedules = linear sigmoid:-3,3,0.9
scales = 0.25 1.0
metric = sliced_wasserstein
oracle = false
base_seed = 40
n_eval = 500
normalize = off
"""


@pytest.mark.golden
class TestGoldenText:
    """The exact resolved text; reruns and stored digests depend on its key order."""

    def test_every_section(self):
        assert serialize_config(parse_config_text(FULL)) == FULL_RESOLVED

    @pytest.mark.parametrize(
        "given_text, resolved",
        [
            ("[dataset]\nrho = 0.5\ndim = 4\nseed = 0\nn_train = 2\nkind = gaussian_ar1\n",
             "[dataset]\nkind = gaussian_ar1\nn_train = 2\nseed = 0\ndim = 4\nrho = 0.5\n"),
            ("[dataset]\nstd = 0.2\nradius = 1.0\nmodes = 2\nkind = mixture2d\n"
             "seed = 3\nn_train = 512\n",
             "[dataset]\nkind = mixture2d\nn_train = 512\nseed = 3\nmodes = 2\n"
             "radius = 1.0\nstd = 0.2\n"),
            ("[dataset]\nseed = 0\nkind = checkerboard\nn_train = 64\n",
             "[dataset]\nkind = checkerboard\nn_train = 64\nseed = 0\n"),
            ("[dataset]\nupsample = 2\nrho = 0.5\nbase_res = 2\nkind = toy_image\n"
             "n_train = 8\nseed = 1\n",
             "[dataset]\nkind = toy_image\nn_train = 8\nseed = 1\nbase_res = 2\n"
             "rho = 0.5\nupsample = 2\n"),
        ],
    )
    def test_dataset_kinds(self, given_text, resolved):
        assert serialize_config(parse_config_text(given_text)) == resolved


def _floats(lo, hi, **kw):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, **kw)


def _spec_or_none(kind, start, end, tau):
    try:
        return ScheduleSpec(kind, start, end, tau)
    except ValueError:
        return None


_SCHEDULES = st.one_of(
    st.just(ScheduleSpec.linear()),
    st.tuples(st.just("cosine"), _floats(0.0, 1.0), _floats(0.0, 1.0), _floats(0.01, 10.0))
    .map(lambda v: _spec_or_none(*v)).filter(lambda spec: spec is not None),
    st.tuples(st.just("sigmoid"), _floats(-10.0, 10.0), _floats(-10.0, 10.0),
              _floats(0.01, 10.0))
    .map(lambda v: _spec_or_none(*v)).filter(lambda spec: spec is not None),
)
_SEEDS = st.integers(0, 2**63 - 1)
_UNIT = _floats(0.0, 1.0)
_SCALES = _floats(0.0, 1.0, exclude_min=True)
# normalize = analytic rejects a scale whose variance rounds to 0 at gamma = 1
_ANALYTIC_SCALES = _SCALES.filter(lambda b: analytic_variance(1.0, b) > 0.0)


def _scales(normalize):
    return _ANALYTIC_SCALES if normalize == "analytic" else _SCALES

_DATASETS = st.one_of(
    st.builds(DatasetSpec, kind=st.just("gaussian_ar1"), n_train=st.integers(1, 10**6),
              seed=_SEEDS, dim=st.integers(1, 64), rho=_floats(0.0, 1.0, exclude_max=True)),
    st.builds(DatasetSpec, kind=st.just("mixture2d"), n_train=st.integers(1, 10**6),
              seed=_SEEDS, modes=st.integers(1, 16), radius=_floats(1e-3, 10.0),
              std=_floats(1e-3, 10.0)),
    st.builds(DatasetSpec, kind=st.just("checkerboard"), n_train=st.integers(1, 10**6),
              seed=_SEEDS),
    st.builds(DatasetSpec, kind=st.just("toy_image"), n_train=st.integers(1, 10**6),
              seed=_SEEDS, base_res=st.integers(2, 8),
              rho=_floats(0.0, 1.0, exclude_max=True), upsample=st.sampled_from((1, 2, 4))),
)
_COMPOUNDS = st.sampled_from(NORMALIZE_MODES).flatmap(
    lambda normalize: st.builds(CompoundSchedule, schedule=_SCHEDULES,
                                input_scale=_scales(normalize), normalize=st.just(normalize)))
_TRAINS = st.builds(
    TrainConfig, steps=st.integers(0, 10**6), batch_size=st.integers(1, 4096),
    lr=_floats(1e-8, 10.0), seed=_SEEDS, optimizer=st.sampled_from(OPTIMIZER_KINDS),
    lr_decay=st.sampled_from(LR_DECAY_KINDS),
    lr_decay_fraction=_floats(0.0, 1.0, exclude_min=True),
    beta1=_floats(0.0, 1.0, exclude_max=True), beta2=_floats(0.0, 1.0, exclude_max=True),
    eps_opt=_floats(1e-12, 1.0), weight_decay=_floats(0.0, 1.0), ema_decay=_UNIT,
    self_cond_rate=_UNIT, log_every=st.integers(1, 10**4),
    hidden=st.lists(st.integers(1, 512), max_size=4).map(tuple),
    time_embed=st.integers(1, 32).map(lambda k: 2 * k), self_cond=st.booleans(),
)
_SAMPLERS = st.builds(SamplerConfig, steps=st.integers(1, 10**4), seed=_SEEDS,
                      step_kind=st.sampled_from(STEP_KINDS), schedule=_SCHEDULES,
                      signal_clamp=st.none() | _floats(1e-3, 10.0))


@st.composite
def _sweeps(draw):
    oracle = draw(st.booleans())
    normalize = "off" if oracle else draw(st.sampled_from(NORMALIZE_MODES))
    return SweepSettings(
        schedules=tuple(draw(st.lists(_SCHEDULES.map(format_schedule), min_size=1,
                                      max_size=3, unique=True))),
        scales=tuple(draw(st.lists(_scales(normalize), min_size=1, max_size=4, unique=True))),
        metric="covariance_error" if oracle else draw(st.sampled_from(METRIC_NAMES)),
        base_seed=draw(_SEEDS),
        oracle=oracle,
        n_eval=draw(st.integers(2, 10**5)),
        normalize=normalize,
    )


@st.composite
def _configs(draw):
    cfg = Config(
        dataset=draw(st.none() | _DATASETS),
        compound=draw(st.none() | _COMPOUNDS),
        train=draw(st.none() | _TRAINS),
        sampler=draw(st.none() | _SAMPLERS),
        sweep=draw(st.none() | _sweeps()),
    )
    # empirical normalization of a single coordinate is rejected at parse time
    if cfg.dataset is not None and cfg.dataset.data_dim == 1:
        assume(all(s is None or s.normalize != "empirical" for s in (cfg.compound, cfg.sweep)))
    return cfg


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(_configs())
    def test_parse_inverts_serialize(self, cfg):
        text = serialize_config(cfg)
        again = parse_config_text(text)
        assert again == cfg
        assert serialize_config(again) == text


TRAIN_KEYS = "[train]\nsteps = 1\nbatch_size = 1\nlr = 0.1\nseed = 0\n"


class TestNetSettings:
    """The net keys of [train], hidden, time_embed and self_cond, set TrainConfig's fields."""

    def test_build_arch_unconditional(self):
        cfg = TrainConfig(steps=1, batch_size=1, lr=0.1, seed=0, hidden=(8,), time_embed=4)
        assert cfg.arch(3) == MlpArch(in_dim=3, hidden_dims=(8,), time_embed_dim=4)

    def test_build_arch_conditional(self):
        # class conditioning was removed: no field can ask for a class table
        with pytest.raises(TypeError, match="cond_classes"):
            TrainConfig(steps=1, batch_size=1, lr=0.1, seed=0, cond_classes=5)

    def test_rejects_bad_widths(self):
        with pytest.raises(ConfigError, match=r"\[train\]: hidden dims must be >= 1"):
            parse_config_text(TRAIN_KEYS + "hidden = 8 0\n")

    @pytest.mark.parametrize("value", [-2, 0, 1, 3, 17])
    def test_rejects_bad_time_embed_at_parse_time(self, value):
        with pytest.raises(ConfigError, match=rf"\[train\]: time_embed must be even and >= 2, "
                                              rf"got {value}$"):
            parse_config_text(TRAIN_KEYS + f"time_embed = {value}\n")

    def test_no_hidden_layer(self):
        # MlpArch, the checkpoint header, train and generate all run such a net
        cfg = parse_config_text(TRAIN_KEYS + "hidden =\n")
        assert cfg.train.hidden == ()
        assert cfg.train.arch(2).layer_dims() == [(2 + 16, 2)]
        assert parse_config_text(serialize_config(cfg)) == cfg


class TestEachKeySetsItsField:
    def test_sections_are_the_config_attributes(self):
        assert list(_SECTION_KEYS) == list(_SECTION_CLASSES) == [f.name for f in fields(Config)]

    @pytest.mark.parametrize("section", list(_SECTION_KEYS))
    def test_keys_are_the_field_names(self, section):
        keys = [key for key in _SECTION_KEYS[section] if (section, key) not in _RETIRED]
        assert sorted(keys) == sorted(f.name for f in fields(_SECTION_CLASSES[section]))


class TestRetiredConditioningKeys:
    """classes, label_dropout and guidance_weight take only their neutral value.

    They are still written, so config.txt keeps the bytes of earlier runs,
    and they set nothing.
    """

    @pytest.mark.parametrize("key, neutral", [
        ("classes", "0"), ("label_dropout", "0.0"), ("guidance_weight", "0.0"),
    ])
    def test_neutral_value_writes_back_the_same_bytes(self, key, neutral):
        lines = [line for line in FULL_RESOLVED.splitlines() if not line.startswith(key + " ")]
        without = "\n".join(lines) + "\n"
        cfg = parse_config_text(without)
        assert serialize_config(cfg) == FULL_RESOLVED
        assert parse_config_text(FULL_RESOLVED) == cfg
        # another spelling of the neutral value reparses to the same settings
        assert parse_config_text(FULL_RESOLVED.replace(f"{key} = {neutral}", f"{key} = -0")) == cfg

    @pytest.mark.parametrize("section, key, neutral, value", [
        ("train", "classes", "0", "3"), ("train", "label_dropout", "0.0", "0.1"),
        ("sampler", "guidance_weight", "0.0", "4.0"),
        ("sampler", "guidance_weight", "0.0", "nan"),
    ])
    def test_other_values_rejected(self, section, key, neutral, value):
        text = FULL_RESOLVED.replace(f"{key} = {neutral}", f"{key} = {value}")
        lineno = text.splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ConfigError, match=rf"line {lineno}: '{key}' in \[{section}\] "
                                              r"takes only .*conditioning was removed"):
            parse_config_text(text)

    def test_key_alone_still_opens_its_section(self):
        with pytest.raises(ConfigError, match=r"\[sampler\]"):
            parse_config_text("[sampler]\nguidance_weight = 0.0\n")
