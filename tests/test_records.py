"""The domain records: assignment raises, equal records are equal, and the
keys (laws, params, networks, layers) hash equal when they are equal, so a
rebuilt but equal key finds its entry: a params and network pair its cost
model. Laws hash for callers that key on them; `per_stage` merges equal
stage laws by comparison, not by hash."""
import math

import pytest

from edgesplit import StageDistribution, SystemParams, build_autoencoder_preset
from edgesplit.cost_model import cost_model
from edgesplit.model_graph import LayerSpec, NetworkSpec
from edgesplit.placement import PlacementRow
from edgesplit.splitting import ThresholdPolicy

from conftest import DOWNLINK_BPS, channel_at, make_params

# each builds a new record, equal to the one built by the last call
_KEYS = {
    "law": lambda: channel_at(50.0, make_params()),
    "discrete law": lambda: StageDistribution.discrete([(0.5, 0.25), (2.0, 0.75)]),
    "params": make_params,
    "network": lambda: build_autoencoder_preset(DOWNLINK_BPS),
    "layer": lambda: LayerSpec(1e6, 8.0 * 784, 0.01),
}
_RECORDS = {
    **_KEYS,
    "policy": lambda: ThresholdPolicy("optimal", 2, (1.0, math.inf), (3.0, 2.0, 1.0)),
    "placement row": lambda: PlacementRow(2, 1.5, 1.25, 0.5),
}


@pytest.mark.parametrize("kind", _RECORDS)
def test_a_record_refuses_assignment_and_deletion(kind):
    record = _RECORDS[kind]()
    field = record.__slots__[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, field) is value


@pytest.mark.parametrize("kind", _RECORDS)
def test_equal_records_are_equal(kind):
    a, b = _RECORDS[kind](), _RECORDS[kind]()
    assert a is not b and a == b and not a != b
    assert a != tuple(getattr(a, name) for name in a.__slots__)


@pytest.mark.parametrize("kind", _KEYS)
def test_equal_cache_keys_hash_equal(kind):
    a, b = _KEYS[kind](), _KEYS[kind]()
    assert hash(a) == hash(b) and {a, b} == {a}


def test_records_that_differ_in_one_field_are_unequal():
    assert channel_at(50.0, make_params()) != channel_at(60.0, make_params())
    assert make_params() != make_params(updates_per_model=10.0)
    assert LayerSpec(1.0, 2.0, 3.0) != LayerSpec(1.0, 2.0, 4.0)
    net = build_autoencoder_preset(DOWNLINK_BPS)
    assert net != NetworkSpec(net.layers, net.exit_input_bits * 2)
    assert ThresholdPolicy("one_sla", 1, (1.0,)) != ThresholdPolicy("optimal", 1, (1.0,))


def test_a_rebuilt_network_and_params_hit_the_cost_model_cache():
    cm = cost_model(build_autoencoder_preset(DOWNLINK_BPS), make_params())
    before = cost_model.cache_info()
    assert cost_model(build_autoencoder_preset(DOWNLINK_BPS), make_params()) is cm
    after = cost_model.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_params_with_other_updates_is_a_checked_new_record():
    params = make_params()
    assert SystemParams(**params.to_json_dict()) == params
    assert params.with_updates(10.0) == make_params(updates_per_model=10.0)
    assert params.with_updates(math.inf) == make_params(updates_per_model=math.inf)
    assert params.updates_per_model == 50.0
    with pytest.raises(ValueError, match="updates_per_model"):
        params.with_updates(0.5)
