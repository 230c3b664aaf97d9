import numpy as np
import pytest

from twinslice.domain import (
    UNASSIGNED,
    AllocationMatrix,
    ChannelState,
    QoSRequirement,
    ResourceGrid,
    ServiceClass,
    TrafficState,
    UserLayout,
    canonical_users,
    validate_allocation,
)

from conftest import make_users


def test_validate_allocation_passes_on_well_formed_matrix():
    users = make_users(1, 1)
    m = AllocationMatrix((0, 1, UNASSIGNED))
    check = validate_allocation(m, ResourceGrid(3, 1e5), users)
    assert check.ok
    assert bool(check)


def test_validate_allocation_reports_unknown_user():
    users = make_users(1, 0)
    check = validate_allocation(AllocationMatrix((9,)), ResourceGrid(1, 1e5), users)
    assert not check
    assert check.index == 0
    assert check.user_id == 9


def test_validate_allocation_reports_length_mismatch():
    users = make_users(2, 0)
    check = validate_allocation(AllocationMatrix((0, 1)), ResourceGrid(3, 1e5), users)
    assert not check
    assert "length" in check.reason


@pytest.mark.parametrize("rows", [[-2, 0, 1, 2], [0, 3, 1, 2], [UNASSIGNED, 0, 7, -5]])
def test_of_rows_rejects_a_row_out_of_range(rows):
    layout = UserLayout(make_users(2, 1))
    with pytest.raises(ValueError, match="invalid allocation"):
        AllocationMatrix.of_rows(rows, layout)
    m = AllocationMatrix.of_rows([UNASSIGNED, 0, 1, 2], layout)
    assert m.assignment == (UNASSIGNED, 0, 1, 2)
    assert m.rows_in(layout).tolist() == [UNASSIGNED, 0, 1, 2]


def test_slice_of_orthogonal_split_is_half_half():
    from twinslice.policy import OrthogonalConfig, orthogonal_allocate

    from conftest import make_snapshot

    users = make_users(2, 2)
    rng = np.random.default_rng(0)
    snap = make_snapshot(rng.exponential(1.0, (4, 10)), users)
    decision = orthogonal_allocate(
        snap, OrthogonalConfig(0.5), ResourceGrid(10, 1e5), users, 1e-3
    )
    urllc = {u.id for u in users if u.service is ServiceClass.URLLC}
    held = [uid in urllc for uid in decision.allocation.assignment]
    assert (held.count(False), held.count(True)) == (5, 5)


def test_system_bandwidth_is_exact_product():
    grid = ResourceGrid(num_rbs=50, rb_bandwidth=1e5)
    assert grid.system_bandwidth == 50 * 1e5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_rbs=0, rb_bandwidth=1e5),
        dict(num_rbs=5, rb_bandwidth=0.0),
    ],
)
def test_resource_grid_rejects_bad_dims(kwargs):
    with pytest.raises(ValueError):
        ResourceGrid(**kwargs)


def test_qos_defaults_and_ranges():
    qos = QoSRequirement()
    assert qos.urllc_packet_bits == 256  # 32 bytes
    assert qos.urllc_outage_threshold == 0.07
    with pytest.raises(ValueError, match="out of range"):
        QoSRequirement(urllc_outage_threshold=1.5)
    with pytest.raises(ValueError):
        QoSRequirement(urllc_packet_bits=0)
    with pytest.raises(ValueError):
        QoSRequirement(embb_min_rate=-1.0)


def test_channel_state_is_readonly_and_validated():
    ch = ChannelState(snr=[[1.0, 2.0]], user_ids=(0,))
    with pytest.raises(ValueError):
        ch.snr[0, 0] = 5.0
    with pytest.raises(ValueError):
        ChannelState(snr=[[np.nan]], user_ids=(0,))
    with pytest.raises(ValueError):
        ChannelState(snr=[[1.0], [2.0]], user_ids=(0,))
    with pytest.raises(ValueError):
        ChannelState(snr=[[1.0], [2.0]], user_ids=(1, 0))


def test_traffic_state_validation():
    with pytest.raises(ValueError):
        TrafficState(urllc_rate=-1.0, urllc_queue=[], urllc_user_ids=())
    with pytest.raises(ValueError):
        TrafficState(urllc_rate=1.0, urllc_queue=[-5.0], urllc_user_ids=(1,))
    tr = TrafficState(urllc_rate=1.0, urllc_queue=[10.0], urllc_user_ids=(7,))
    assert tr.urllc_queue.tolist() == [10.0] and tr.urllc_user_ids == (7,)


def test_canonical_users_sorts_and_rejects_duplicates():
    u = make_users(2, 1)
    shuffled = (u[2], u[0], u[1])
    assert canonical_users(shuffled) == u
    with pytest.raises(ValueError):
        canonical_users((u[0], u[0]))


def test_every_user_has_exactly_one_class():
    for user in make_users(2, 3):
        assert user.service in (ServiceClass.EMBB, ServiceClass.URLLC)
