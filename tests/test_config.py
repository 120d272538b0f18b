import textwrap

import numpy as np
import pytest
import yaml

from hawkeslob.config import ConfigError, parse_config

MINIMAL_MICRO = textwrap.dedent("""
    schema_version: 1
    model: micro
    seed: 42
    grid: {horizon: 0.5}
    scaling:
      delta_x: 0.1
      delta_v: 0.05
      half_width: 2.8
      book:
        ask_price: 0.3
        bid_price: 0.1
        ask_volume: {family: gaussian, amplitude: 1.0, center: 0.2, width: 1.0}
        bid_volume: {family: gaussian, amplitude: 1.0, center: 0.2, width: 1.0}
      rates:
        a: {family: spread_linear, scale: 0.5}
        b: {family: spread_linear, scale: 0.5}
      base_active: {a: 0.25, b: 0.25}
      base_passive:
        a_lo: {factor: 0.25, profile: {family: gaussian, amplitude: 1.0}}
        a_cx: {factor: 0.25, profile: {family: gaussian, amplitude: 1.0}}
        b_lo: {factor: 0.25, profile: {family: gaussian, amplitude: 1.0}}
        b_cx: {factor: 0.25, profile: {family: gaussian, amplitude: 1.0}}
      sizes:
        a_lo: {family: dirac, z: 0.693147}
        a_cx: {family: dirac, z: 0.693147}
        b_lo: {family: dirac, z: 0.693147}
        b_cx: {family: dirac, z: 0.693147}
      kernels:
        act_from_act:
          - {target: a, source: a_mo, time: {family: exponential, c: 0.2, kappa: 1.0}}
""")


def _mutate(key_path, value):
    doc = yaml.safe_load(MINIMAL_MICRO)
    node = doc
    keys = key_path.split(".")
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    return yaml.safe_dump(doc)


def test_minimal_micro_parses():
    cfg = parse_config(MINIMAL_MICRO)
    assert cfg.model == "micro"
    assert cfg.seed == 42
    family = cfg.scaling_family()
    assert family.delta_x == 0.1


def test_round_trip_identity():
    cfg = parse_config(MINIMAL_MICRO)
    again = parse_config(cfg.serialize())
    assert cfg == again
    assert cfg.serialize() == again.serialize()


def test_order_size_above_tick_rejected_with_explanation():
    text = _mutate("scaling.delta_v", 0.2)
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    paths = {p for p, _ in exc.value.errors}
    assert "scaling.delta_v" in paths
    assert any("volumes negative" in m for _, m in exc.value.errors)


def test_failed_number_is_not_checked_again():
    # a nonpositive tick size fails once; the order-size and tick-grid
    # checks that read it do not run on the failed value
    with pytest.raises(ConfigError) as exc:
        parse_config(_mutate("scaling.delta_x", -1.0))
    assert exc.value.errors == [("scaling.delta_x", "must be positive")]


def test_custom_kernel_without_envelope_rejected():
    doc = yaml.safe_load(MINIMAL_MICRO)
    doc["scaling"]["kernels"]["act_from_act"][0]["time"] = {
        "family": "table", "ts": [0.0, 1.0], "values": [1.0, 0.5],
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(yaml.safe_dump(doc))
    assert any("envelope" in m for _, m in exc.value.errors)


def test_unknown_kernel_family_rejected():
    doc = yaml.safe_load(MINIMAL_MICRO)
    doc["scaling"]["kernels"]["act_from_act"][0]["time"] = {"family": "mystery", "c": 1.0}
    with pytest.raises(ConfigError) as exc:
        parse_config(yaml.safe_dump(doc))
    assert any("unknown time kernel family" in m for _, m in exc.value.errors)


def test_unknown_rate_family_rejected():
    text = _mutate("scaling.rates.a", {"family": "cubic", "scale": 1.0})
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any("rate family" in m for _, m in exc.value.errors)


def test_error_paths_accumulate():
    doc = yaml.safe_load(MINIMAL_MICRO)
    del doc["scaling"]["book"]["ask_price"]
    doc["scaling"]["delta_x"] = -1.0
    with pytest.raises(ConfigError) as exc:
        parse_config(yaml.safe_dump(doc))
    paths = {p for p, _ in exc.value.errors}
    assert "scaling.book.ask_price" in paths
    assert "scaling.delta_x" in paths


def test_yaml_syntax_error_reported_with_location():
    with pytest.raises(ConfigError) as exc:
        parse_config("model: [unclosed")
    message = exc.value.errors[0][1]
    assert "YAML syntax error" in message
    assert "line 1, column 8" in message  # where the unclosed sequence opens


def _table_kernel_config() -> str:
    """MINIMAL_MICRO with a 41-sample table kernel on every active pair."""
    ts = np.linspace(0.0, 4.0, 41)
    vals = 0.2 * np.exp(-ts) * (1.0 - ts / 4.0)
    vals[-1] = 0.0
    table = {"family": "table", "ts": ts.tolist(), "values": vals.tolist(),
             "envelope": vals.tolist()}
    doc = yaml.safe_load(MINIMAL_MICRO)
    doc["scaling"]["kernels"]["act_from_act"] = [
        {"target": tgt, "source": src, "time": table}
        for tgt in "ab" for src in ("a_mo", "a_sp", "b_mo", "b_sp")
    ]
    return yaml.safe_dump(doc)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_loads_through_libyaml_when_present(monkeypatch):
    used = []

    class Recording(yaml.CSafeLoader):
        def __init__(self, stream):
            used.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Recording)
    parse_config(MINIMAL_MICRO)
    assert used == [MINIMAL_MICRO]


@pytest.mark.parametrize("make_text", [lambda: MINIMAL_MICRO, _table_kernel_config])
def test_libyaml_and_pure_python_loaders_agree(monkeypatch, make_text):
    text = make_text()
    fast = parse_config(text)
    assert fast.data == yaml.load(text, Loader=yaml.SafeLoader)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)  # PyYAML without libyaml
    slow = parse_config(text)
    assert fast == slow
    assert fast.serialize() == slow.serialize()


def test_pure_python_loader_reports_location(monkeypatch):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    test_yaml_syntax_error_reported_with_location()


def test_schema_version_enforced():
    text = MINIMAL_MICRO.replace("schema_version: 1", "schema_version: 99")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any(p == "schema_version" for p, _ in exc.value.errors)


def test_unknown_model_rejected():
    text = MINIMAL_MICRO.replace("model: micro", "model: quantum")
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize("key_path, value, message", [
    ("scaling.half_width", float("inf"), "must be finite"),
    ("scaling.rates.a.scale", float("nan"), "must be finite"),
    ("scaling.rates.b.scale", -0.5, "must be >= 0"),
    ("scaling.base_passive.a_cx.profile", {"family": "gaussian", "amplitude": float("inf")},
     "finite amplitude"),
    ("scaling.base_passive.b_lo.profile", {"family": "uniform", "amplitude": float("nan")},
     "finite amplitude"),
    ("scaling.sizes.b_cx", {"family": "dirac", "z": 200.0}, "fourth moment"),
    ("scaling.sizes.a_lo", {"family": "lognormal", "m": 0.0, "s": 1.0, "z_max": 200.0},
     "fourth moment"),
])
def test_scaling_conditions_rejected(key_path, value, message):
    # non-finite scales and profiles, negative rate factors and infinite
    # size moments fail the parse, at the key that holds them
    with pytest.raises(ConfigError) as exc:
        parse_config(_mutate(key_path, value))
    assert any(path == key_path and message in m for path, m in exc.value.errors), \
        exc.value.errors


@pytest.mark.parametrize("time", [
    {"family": "exponential", "c": float("nan"), "kappa": 1.0},
    {"family": "table", "ts": [0.0, 1.0], "values": [float("nan"), 0.0], "envelope": [1.0, 0.0]},
])
def test_non_finite_kernel_parameters_rejected(time):
    doc = yaml.safe_load(MINIMAL_MICRO)
    doc["scaling"]["kernels"]["act_from_act"][0]["time"] = time
    with pytest.raises(ConfigError) as exc:
        parse_config(yaml.safe_dump(doc))
    assert any(path == "scaling.kernels.act_from_act[0].time" and "finite" in m
               for path, m in exc.value.errors), exc.value.errors


def test_size_measure_validation_propagates():
    text = _mutate("scaling.sizes.a_lo", {"family": "exponential", "rate": 2.0})
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any("rate > 4" in m for _, m in exc.value.errors)


def test_oracle_and_resolvent_blocks():
    good = "schema_version: 1\nmodel: oracle\nseed: 1\noracle: {check: cir, x0: 0.5}\n"
    assert parse_config(good).model == "oracle"
    bad = "schema_version: 1\nmodel: oracle\nseed: 1\noracle: {check: tarot}\n"
    with pytest.raises(ConfigError):
        parse_config(bad)
    res = "schema_version: 1\nmodel: resolvent\nseed: 1\nresolvent: {family: gamma, c: 0.5, kappa: 1.0}\n"
    assert parse_config(res).model == "resolvent"
    with pytest.raises(ConfigError):
        parse_config(res.replace("gamma", "bessel"))


def test_experiment_block_validation():
    doc = yaml.safe_load(MINIMAL_MICRO)
    doc["model"] = "converge"
    doc["experiment"] = {"levels": [0, 1], "replicates": 400}
    with pytest.raises(ConfigError) as exc:
        parse_config(yaml.safe_dump(doc))
    assert any("levels" in p for p, _ in exc.value.errors)


@pytest.mark.parametrize("model", ["micro", "limit", "converge"])
def test_crossed_start_book_rejected(model):
    doc = yaml.safe_load(_mutate("scaling.book.ask_price", 0.0))
    doc["model"] = model
    with pytest.raises(ConfigError) as exc:
        parse_config(yaml.safe_dump(doc))
    assert [p for p, _ in exc.value.errors] == ["scaling.book.ask_price"]
    assert "crossed" in exc.value.errors[0][1]


def test_start_prices_must_sit_on_the_level_0_ticks_for_micro_models():
    # level k refines delta_x by 2^-k, so level 0's ticks lie on every level
    doc = yaml.safe_load(_mutate("scaling.book.ask_price", 0.33))
    for model in ("micro", "converge"):
        doc["model"] = model
        with pytest.raises(ConfigError) as exc:
            parse_config(yaml.safe_dump(doc))
        assert [p for p, _ in exc.value.errors] == ["scaling.book.ask_price"]
        assert "not on the 0.1 grid" in exc.value.errors[0][1]
    # the limit has no tick grid
    doc["model"] = "limit"
    assert parse_config(yaml.safe_dump(doc)).scaling_family().ask_price0 == 0.33
