import pickle

import numpy as np
import pytest

from gpselect import errors
from gpselect.errors import GpSelectError
from gpselect.gaussian import chol_spd


def _raised_by(fn, *args):
    try:
        fn(*args)
    except GpSelectError as err:
        return err
    raise AssertionError(f"{fn.__name__} did not raise")


# One instance of every library exception, as the library raises it. A rank
# task's error crosses a process boundary by pickle, so each must come back
# the same.
INSTANCES = [
    errors.GpSelectError("generic failure"),
    _raised_by(chol_spd, np.array([[1.0, 2.0], [2.0, 1.0]])),  # carries a lazy pivot
    errors.SingularCovariance("K has a non-finite entry"),
    errors.InsufficientData("n=3 too small for M=2"),
    errors.AllPartitionsFailed(32),
    errors.OptimizationFailed("all 3 restarts failed"),
    errors.SchemaError("columns ['z'] not found"),
    errors.EmptyData("no usable rows"),
    errors.DegenerateBaseline("training outputs have zero variance"),
]


def _subclasses(cls):
    out = {cls}
    for sub in cls.__subclasses__():
        out |= _subclasses(sub)
    return out


def _public_attributes(err) -> dict:
    return {k: v for k, v in vars(err).items() if not k.startswith("_")}


def test_every_library_exception_is_covered():
    assert {type(err) for err in INSTANCES} == _subclasses(GpSelectError)


@pytest.mark.parametrize("err", INSTANCES, ids=lambda e: type(e).__name__)
def test_exception_survives_pickle(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert back.args == err.args
    assert _public_attributes(back) == _public_attributes(err)


def test_all_partitions_failed_message_and_count():
    back = pickle.loads(pickle.dumps(errors.AllPartitionsFailed(32)))
    assert str(back) == "all 32 partitions failed numerically"
    assert back.n_partitions == 32

